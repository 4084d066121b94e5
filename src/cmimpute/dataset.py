"""Schema definition, delimited-text ingestion, categorical encoding,
missing-cell representation, and the complete/incomplete group split."""

from __future__ import annotations

import csv
import io
import math
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DecodeError, ParseError, SchemaError, read_json, read_text

# A cell is a parsed numeric value, a categorical symbol awaiting
# encoding, or None for a missing value.
Cell = float | str | None

NUMERIC = "numeric"
CATEGORICAL = "categorical"

DEFAULT_MISSING_MARKERS = frozenset({"?", "NaN", ""})

# Symbol used when a missing cell must be rendered back to text.
MISSING_FIELD = "?"

# Largest numeric magnitude a field may hold.  Differences of such
# values, squared and summed over any realistic number of attributes
# and records, stay far below the float range, so no distance, mean or
# k-means sum the pipeline forms overflows.
MAX_MAGNITUDE = 1e100


class AttributeSpec:
    """One column: its name, kind, and (for categoricals) the symbol
    to ordinal encoding map.  Never mutated.

    Ordinals are contiguous positive integers starting at 1 so that
    decoding can invert the map without ambiguity.  An empty encoding
    on a categorical attribute means "not yet frozen": encode() will
    build one from the data in sorted symbol order.
    """

    def __init__(self, name: str, kind: str, encoding: Mapping[str, int] | None = None) -> None:
        self.name, self.kind, self.encoding = name, kind, {} if encoding is None else encoding
        if kind not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"attribute {name!r}: unknown kind {kind!r}")
        if kind == NUMERIC and self.encoding:
            raise SchemaError(f"attribute {name!r}: numeric attributes take no encoding")
        if self.encoding:
            ordinals = sorted(self.encoding.values())
            if ordinals != list(range(1, len(ordinals) + 1)):
                raise SchemaError(
                    f"attribute {name!r}: ordinals must be contiguous from 1, got {ordinals}"
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributeSpec):
            return NotImplemented
        return (self.name, self.kind, self.encoding) == (other.name, other.kind, other.encoding)

    @property
    def is_frozen(self) -> bool:
        return self.kind == NUMERIC or bool(self.encoding)

    def decode_value(self, value: float) -> str | float:
        if self.kind == NUMERIC:
            return value
        try:
            return self._symbols[value]
        except KeyError:
            raise DecodeError(
                f"attribute {self.name!r}: value {value!r} is not an ordinal of its encoding"
            ) from None

    @cached_property
    def _symbols(self) -> dict[int, str]:
        """The inverse of the encoding: symbol per ordinal."""
        return {ordinal: symbol for symbol, ordinal in self.encoding.items()}


class Schema:
    """Column specs plus the optional label column and the marker
    strings that denote a missing cell.  Never mutated."""

    def __init__(
        self,
        attributes: tuple[AttributeSpec, ...],
        label_column: str | None = None,
        missing_markers: frozenset[str] = DEFAULT_MISSING_MARKERS,
    ) -> None:
        self.attributes, self.label_column, self.missing_markers = attributes, label_column, missing_markers
        if not attributes:
            raise SchemaError("schema needs at least one attribute")
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names: {names}")
        if label_column in names:
            raise SchemaError(f"label column {label_column!r} collides with an attribute")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return (self.attributes, self.label_column, self.missing_markers) == (
            other.attributes,
            other.label_column,
            other.missing_markers,
        )

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)


def schema_from_dict(raw: Mapping) -> Schema:
    """Build a Schema from parsed JSON, validating the shape eagerly so
    config mistakes surface as one SchemaError instead of a late crash."""
    if not isinstance(raw, Mapping):
        raise SchemaError("schema config must be a JSON object")
    attrs_raw = raw.get("attributes")
    if not isinstance(attrs_raw, list) or not attrs_raw:
        raise SchemaError("schema config needs a non-empty 'attributes' list")
    attrs = []
    for i, item in enumerate(attrs_raw):
        if not isinstance(item, Mapping) or "name" not in item or "kind" not in item:
            raise SchemaError(f"attribute entry {i}: need 'name' and 'kind'")
        encoding = item.get("encoding", {})
        if not isinstance(encoding, Mapping):
            raise SchemaError(f"attribute entry {i}: 'encoding' must be an object")
        enc: dict[str, int] = {}
        for sym, ordinal in encoding.items():
            if not isinstance(ordinal, int) or isinstance(ordinal, bool):
                raise SchemaError(f"attribute entry {i}: ordinal for {sym!r} must be an integer")
            enc[str(sym)] = ordinal
        attrs.append(AttributeSpec(str(item["name"]), str(item["kind"]), enc))
    label = raw.get("label_column")
    if label is not None:
        label = str(label)
    markers = raw.get("missing_markers")
    if markers is None:
        marker_set = DEFAULT_MISSING_MARKERS
    elif isinstance(markers, list):
        marker_set = frozenset(str(m) for m in markers)
    else:
        raise SchemaError("'missing_markers' must be a list of strings")
    return Schema(tuple(attrs), label, marker_set)


def load_schema(path: str) -> Schema:
    return schema_from_dict(read_json(path, SchemaError))


class Record(NamedTuple):
    """One row: an id, a fixed-arity cell tuple, and an optional
    decision-class label."""

    id: str
    cells: tuple[Cell, ...]
    label: str | None = None

    @property
    def is_complete(self) -> bool:
        return None not in self.cells


# One attribute's cells in row order: a float64 array with NaN for each
# missing cell when every present cell is a float, else a tuple of the
# cells (symbols, None for a missing cell).
Column = np.ndarray | tuple[Cell, ...]


def _column(cells: Sequence[Cell]) -> Column:
    if all(t is type(None) or issubclass(t, float) for t in set(map(type, cells))):
        return np.array(cells, dtype=float)
    return tuple(cells)


class FieldText:
    """A numeric column's fields as they were read and the values parsed
    from them.  The writer copies a canonical field (see
    _canonical_fields) wherever its cell still holds the value parsed
    from it, instead of rendering the value again.  Never mutated."""

    def __init__(self, fields: Sequence[str], values: np.ndarray) -> None:
        self.fields, self.values = fields, values

    @cached_property
    def canonical(self) -> np.ndarray:
        """Per field, whether it is canonical: computed on the first
        write, so a dataset that is never written never pays for it.  A
        field holding a line break (csv.reader reads one from a quoted
        field) would split the joined text anew, so in that column no
        field counts as canonical and every cell is rendered."""
        text, m = "\n".join(self.fields), len(self.fields)
        if text.count("\n") != m - 1:
            return np.zeros(m, dtype=bool)
        return _canonical_fields(text, m)


# Per byte, 0 for a digit or a line break, 1 for a dot and 2 for any
# other byte: a field whose bytes add up to at most 1 is digits with at
# most one dot.  _canonical_fields clears the code of a leading sign.
_BYTE_CODES = np.full(256, 2, np.uint8)
_BYTE_CODES[list(b"0123456789\n")] = 0
_BYTE_CODES[ord(".")] = 1


def _canonical_fields(text: str, m: int) -> np.ndarray:
    """Per field of the m "\n"-joined fields in text, whether it is
    exactly what format_number writes for its value: a plain decimal of
    at most 15 characters, with no exponent, no sign on a zero, no
    leading zero but that of "0" or "0.", no trailing zero after a "."
    and no "0.0000" prefix (repr switches to an exponent below 0.0001).
    At 15 significant digits or fewer, repr gives back a decimal's own
    digits (DBL_DIG = 15).  The fields are checked together, over the
    bytes of the text."""
    raw = np.frombuffer(text.encode() + b"\n" * 8, np.uint8)  # the padding keeps c[5] in range
    ends = np.flatnonzero(raw == ord("\n"))[:m]
    starts = np.concatenate(([0], ends[:-1] + 1))
    negative = raw[starts] == ord("-")
    first = starts + negative
    size = ends - first  # characters after the sign
    codes = np.take(_BYTE_CODES, raw)
    codes[starts[negative]] = 0
    dots = np.add.reduceat(codes, starts)  # wraps only past 127 bytes, far beyond 15
    c = [raw[first + i] for i in range(6)]
    zero, dot = ord("0"), ord(".")
    return (
        (dots <= 1)
        & (size >= 1)
        & (ends - starts <= 15)
        & (c[0] - zero <= 9)  # uint8: a byte below "0" wraps past 9
        & ((c[0] != zero) | (size == 1) | (c[1] == dot))
        & ((dots == 0) | (raw[ends - 1] - ord("1") <= 8))
        & ~(negative & (size == 1) & (c[0] == zero))
        & ~((c[0] == zero) & (c[1] == dot) & (c[2] == zero) & (c[3] == zero) & (c[4] == zero) & (c[5] == zero))
    )


def _cells(column: Column) -> Sequence[Cell]:
    """The column's cells as a record holds them: None for a missing cell."""
    if not isinstance(column, np.ndarray):
        return column
    values = column.tolist()
    return [None if v != v else v for v in values] if np.isnan(column).any() else values


class Dataset:
    """Rows sharing one schema, stored a column at a time: the record
    ids, the labels (None for an unlabeled record) and one Column per
    attribute.  Categorical columns hold symbols until encode() turns
    them into float ordinals; once every column is an array the dataset
    is encoded and its cells form one matrix.  Records are a view of
    the columns, built when first read.  A dataset parsed from text
    keeps each numeric column's FieldText (None for every other
    column), which encode, decode_dataset and imputation pass on and
    every other constructor drops.  A dataset is never mutated."""

    def __init__(
        self, schema: Schema, ids: Sequence[str], labels: Sequence[str | None], columns, field_texts=None
    ) -> None:
        self.schema, self.ids, self.labels, self.columns = schema, tuple(ids), tuple(labels), tuple(columns)
        self.field_texts = tuple(field_texts) if field_texts is not None else (None,) * len(self.columns)
        for column in self.columns:
            if isinstance(column, np.ndarray):
                column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        """Same schema, ids, labels and cells, a missing cell equal to a
        missing cell; field texts are not compared."""
        if not isinstance(other, Dataset):
            return NotImplemented
        heads = [(d.schema, d.ids, d.labels, len(d.columns)) for d in (self, other)]
        return heads[0] == heads[1] and all(
            np.array_equal(a, b, equal_nan=True)
            if isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            else tuple(_cells(a)) == tuple(_cells(b))
            for a, b in zip(self.columns, other.columns)
        )

    @property
    def classes(self) -> tuple[str, ...]:
        """Distinct labels in sorted order; unlabeled records contribute nothing."""
        return tuple(sorted(set(self.labels) - {None}))

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def is_complete(self) -> bool:
        return not any(np.isnan(c).any() if isinstance(c, np.ndarray) else None in c for c in self.columns)

    @property
    def is_encoded(self) -> bool:
        """True when every present cell is numeric (symbols all encoded)."""
        return all(isinstance(c, np.ndarray) for c in self.columns)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The cells as one read-only (m, n) float64 matrix, NaN for each
        missing cell.  Built once per dataset, which must be encoded."""
        if not self.is_encoded:
            raise ValueError("dataset must be encoded before its cells form a matrix")
        matrix = np.column_stack(self.columns)
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def records(self) -> tuple[Record, ...]:
        return tuple(map(Record, self.ids, zip(*map(_cells, self.columns)), self.labels))

    def record(self, record_id: str) -> Record:
        return self.records[self._by_id[record_id]]

    @cached_property
    def _by_id(self) -> dict[str, int]:
        """Row per id, the first one when ids repeat."""
        return dict(zip(reversed(self.ids), range(len(self.ids) - 1, -1, -1)))

    def take(self, rows: Sequence[int]) -> Dataset:
        """The given rows, in the given order, as a new dataset."""
        index = np.asarray(rows, dtype=np.intp)
        rows = index.tolist()
        return Dataset(
            self.schema,
            [self.ids[i] for i in rows],
            [self.labels[i] for i in rows],
            [c[index] if isinstance(c, np.ndarray) else tuple(c[i] for i in rows) for c in self.columns],
        )

    @cached_property
    def _memo(self) -> dict:
        """Work other modules derive from this dataset and keep for as
        long as it lives (the classifier's fit)."""
        return {}


class GroupSplit(NamedTuple):
    """Complete records (g1, the donor pool) and records with at least
    one missing cell (g2, the queries), both in original order."""

    g1: Dataset
    g2: Dataset


def parse_dataset(text: str, schema: Schema, id_prefix: str = "R") -> Dataset:
    """Parse delimited text with a header row into a Dataset.

    Each field is stripped; one that then matches a missing marker
    becomes a missing cell.  Per numeric column, NumPy reads every other
    field with float() in one cast (non-finite values and magnitudes
    above MAX_MAGNITUDE rejected); categorical fields stay symbols until
    encode().  Records are assigned ids R1..Rm in row order (the prefix
    is configurable so query files read as Q1..Qm next to their training
    records).  An empty label field means the record is unlabeled.  Text
    that plain splitting reads as csv.reader would (see _split_fields)
    is split a column at a time; any other text is read by csv.reader.
    The fields are parsed and checked a column at a time; when a check
    fails, or a row read by csv.reader has the wrong width, the rows are
    checked again one at a time, so the error names the first bad row.
    """
    expected_header = list(schema.attribute_names)
    if schema.label_column is not None:
        expected_header.append(schema.label_column)
    width = len(expected_header)
    flat = _split_fields(text, width)
    rows = _read_rows(text) if flat is None else None
    header = [f.strip() for f in (rows[0] if flat is None else flat[:width])]
    if header != expected_header:
        raise ParseError(f"header {header} does not match schema columns {expected_header}")

    if flat is None:
        if any(len(row) != width for row in rows[1:]):
            _raise_first_error(rows[1:], schema, width)
        fields = list(zip(*rows[1:])) or [()] * width
    else:
        fields = [flat[j :: width + 1] for j in range(width + 1, 2 * width + 1)]
    try:
        columns = _parse_columns(fields, schema)
    except (ParseError, SchemaError):
        _raise_first_error(list(zip(*fields)), schema, width)
        raise
    n, m = schema.arity, len(fields[0])
    labels = [f.strip() or None for f in columns[n]] if schema.label_column is not None else [None] * m
    ids = [f"{id_prefix}{i}" for i in range(1, m + 1)]
    texts = [
        FieldText(raw, column) if spec.kind == NUMERIC else None
        for spec, raw, column in zip(schema.attributes, fields, columns)
    ]
    return Dataset(schema, ids, labels, columns[:n], texts)


def _split_fields(text: str, width: int) -> list[str] | None:
    """The text's non-blank lines split into fields, row after row, with
    a "\n" between rows, when splitting on line breaks and commas reads
    the same fields as csv.reader: the text holds no quote, carriage
    return or NUL, has a line, every line holds width fields and no
    line is longer than csv.field_size_limit().  None for any other
    text.  A line holds no "\n", so every "\n" in the split is a row
    break, and rows of width fields put one at every (width + 1)-th
    place."""
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = list(filter(None, text.split("\n")))
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    flat = ",\n,".join(lines).split(",")
    if len(flat) != (width + 1) * len(lines) - 1 or flat[width :: width + 1].count("\n") != len(lines) - 1:
        return None
    return flat


def _read_rows(text: str) -> list[list[str]]:
    """The text's non-blank rows as csv.reader reads them; the first is
    the header."""
    rows: list[list[str]] = []
    try:
        for row in csv.reader(io.StringIO(text)):
            if row:
                rows.append(row)
    except csv.Error as exc:  # a field past csv.field_size_limit(), say
        raise ParseError(f"row {len(rows) + 1}: {exc}") from None
    if not rows:
        raise ParseError("no header row")
    return rows


def _raise_first_error(body: Sequence[Sequence[str]], schema: Schema, width: int) -> None:
    """Check the body rows one at a time, in row order, and raise for the
    first bad one: a row of the wrong width, or else the row's first bad
    field."""
    for rownum, row in enumerate(body, start=2):
        if len(row) != width:
            raise ParseError(f"row {rownum}: expected {width} fields, got {len(row)}")
        _parse_columns([(f,) for f in row], schema, rownum)


def _parse_columns(fields: list, schema: Schema, first_row: int = 2) -> list:
    """The parsed attribute columns of the fields, given a column at a
    time, then their raw label fields.  Raises for a bad field, named
    right only for a single row: parse_dataset replays a failed column
    pass one row at a time (_raise_first_error)."""
    markers, nan = schema.missing_markers, math.nan
    columns: list = []
    for spec, raw in zip(schema.attributes, fields):
        if spec.kind == CATEGORICAL:
            symbols = [None if (t := f.strip()) in markers else t for f in raw]
            if spec.is_frozen and not set(symbols) - {None} <= spec.encoding.keys():
                raise SchemaError(
                    f"row {first_row}: symbol {symbols[0]!r} not in the frozen encoding "
                    f"of attribute {spec.name!r}"
                )
            columns.append(_column(symbols))
            continue
        try:
            values = np.array([nan if (t := f.strip()) in markers else t for f in raw], dtype=float)
        except ValueError:
            field = raw[0].strip()
            raise ParseError(f"row {first_row}: {field!r} is not numeric for attribute {spec.name!r}") from None
        for i in np.flatnonzero(~(np.abs(values) <= MAX_MAGNITUDE)).tolist():  # NaN fails <=
            t = raw[i].strip()
            if t in markers:
                continue
            if not math.isfinite(values[i]):
                raise ParseError(f"row {first_row + i}: non-finite value {t!r} for attribute {spec.name!r}")
            raise ParseError(
                f"row {first_row + i}: {t!r} for attribute {spec.name!r} exceeds "
                f"the magnitude bound {MAX_MAGNITUDE:g}"
            )
        columns.append(values)
    return columns + fields[schema.arity :]


def load_dataset(path: str, schema: Schema) -> Dataset:
    return parse_dataset(read_text(path), schema)


def encode(dataset: Dataset) -> Dataset:
    """Replace categorical symbols by their ordinals.

    Attributes without a frozen encoding get one built from the data:
    distinct symbols in sorted order, ordinals 1..K.  An explicit
    encoding in the schema always wins, so table reproductions do not
    depend on symbol naming.  Each column is checked and encoded once
    per distinct cell, then mapped with one dict lookup per cell.
    """
    specs, columns = [], []
    for spec, column in zip(dataset.schema.attributes, dataset.columns):
        if spec.kind == CATEGORICAL:
            spec, column = _encode_column(spec, column, dataset.ids)
        specs.append(spec)
        columns.append(column)
    schema = Schema(tuple(specs), dataset.schema.label_column, dataset.schema.missing_markers)
    return Dataset(schema, dataset.ids, dataset.labels, columns, dataset.field_texts)


def _encode_column(spec: AttributeSpec, column: Column, ids: Sequence[str]) -> tuple[AttributeSpec, Column]:
    # Cells in first-appearance order (NaN, a missing number, as None);
    # every one present must be a symbol, of the encoding if it is frozen.
    cells = _cells(column)
    distinct = dict.fromkeys(cells)
    distinct.pop(None, None)
    for cell in distinct:
        if not isinstance(cell, str):
            where = f"record {ids[cells.index(cell)]}: attribute {spec.name!r}"
            raise SchemaError(f"{where} expected a symbol, got {cell!r}")
        if spec.encoding and cell not in spec.encoding:
            raise SchemaError(f"attribute {spec.name!r}: symbol {cell!r} not in frozen encoding")
    if not spec.encoding:
        spec = AttributeSpec(spec.name, spec.kind, {sym: i for i, sym in enumerate(sorted(distinct), start=1)})
    codes = {cell: float(spec.encoding[cell]) for cell in distinct}
    codes[None] = math.nan
    return spec, np.fromiter(map(codes.__getitem__, cells), float, len(cells))


def decode_dataset(dataset: Dataset) -> Dataset:
    """Render every encoded cell back to its symbol form, decoding each
    distinct value of a column once."""
    columns = []
    for spec, column in zip(dataset.schema.attributes, dataset.columns):
        if spec.kind != NUMERIC and isinstance(column, np.ndarray):
            values = column.tolist()
            symbols = {v: spec.decode_value(v) for v in dict.fromkeys(values) if v == v}
            column = tuple(map(symbols.get, values))  # NaN finds no symbol: None
        columns.append(column)
    return Dataset(dataset.schema, dataset.ids, dataset.labels, columns, dataset.field_texts)


def split_groups(dataset: Dataset) -> GroupSplit:
    """Partition records into the complete group and the missing-value
    group, both keeping original order.  The dataset must be encoded."""
    incomplete = np.isnan(dataset.matrix).any(axis=1)
    return GroupSplit(dataset.take(np.flatnonzero(~incomplete)), dataset.take(np.flatnonzero(incomplete)))


def format_number(value: float) -> str:
    """Integral floats render without a trailing .0 so written tables
    look like their sources; everything else uses repr (shortest
    round-tripping form)."""
    if abs(value) < 1e15 and value == int(value):
        return str(int(value))
    return repr(value)


def format_column(column: Column) -> list[str]:
    """The column's cells as text: the missing marker, a symbol or
    format_number's rendering.  An array is rendered by repr in bulk,
    then its integral values (found in one NumPy pass) are rewritten as
    integers and its NaNs as the marker."""
    if not isinstance(column, np.ndarray):
        return [MISSING_FIELD if c is None else c if isinstance(c, str) else format_number(c) for c in column]
    texts = list(map(repr, column.tolist()))
    integral = np.flatnonzero((np.abs(column) < 1e15) & (column == np.trunc(column)))
    for i, text in zip(integral.tolist(), map(str, column[integral].astype(np.int64).tolist())):
        texts[i] = text
    for i in np.flatnonzero(np.isnan(column)).tolist():
        texts[i] = MISSING_FIELD
    return texts


def csv_text(header: list[str], columns: Sequence[Sequence[str]]) -> str:
    """CSV text as csv.writer writes it with "\n" line ends: the header
    row, then one row per position of the columns.  When no field needs
    quoting, the rows are joined directly: the same text, written
    several times faster."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    rows = zip(*columns)
    joined = "".join(map("".join, columns))
    if len(columns) > 1 and not any(ch in joined for ch in ',"\r\n'):
        lines = "\n".join(map(",".join, rows))
        buf.write(lines and lines + "\n")
    else:
        writer.writerows(rows)
    return buf.getvalue()


def _kept_column(column: np.ndarray, kept: FieldText) -> list[str]:
    """format_column's text for the column, copying each canonical field
    whose cell still equals the value parsed from it and rendering the
    rest; NaN equals nothing, so every missing or filled cell is
    rendered."""
    texts = list(kept.fields)
    rest = np.flatnonzero(~(kept.canonical & (kept.values == column)))
    for i, text in zip(rest.tolist(), format_column(column[rest])):
        texts[i] = text
    return texts


def dataset_to_csv(dataset: Dataset) -> str:
    """Serialize with a header row, newline-terminated, deterministic;
    cells are formatted a column at a time, and a numeric column with a
    FieldText keeps the fields it can."""
    header = list(dataset.schema.attribute_names)
    columns = [
        format_column(column) if kept is None else _kept_column(column, kept)
        for column, kept in zip(dataset.columns, dataset.field_texts)
    ]
    if dataset.schema.label_column is not None:
        header.append(dataset.schema.label_column)
        columns.append(["" if label is None else label for label in dataset.labels])
    return csv_text(header, columns)


def write_dataset(dataset: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dataset_to_csv(dataset))
