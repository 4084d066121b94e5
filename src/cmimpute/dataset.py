"""Schema definition, delimited-text ingestion, categorical encoding,
missing-cell representation, and the complete/incomplete group split."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .errors import DecodeError, ParseError, SchemaError

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


@dataclass(frozen=True)
class AttributeSpec:
    """One column: its name, kind, and (for categoricals) the symbol
    to ordinal encoding map.

    Ordinals are contiguous positive integers starting at 1 so that
    decoding can invert the map without ambiguity.  An empty encoding
    on a categorical attribute means "not yet frozen": encode() will
    build one from the data in sorted symbol order.
    """

    name: str
    kind: str
    encoding: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == NUMERIC and self.encoding:
            raise SchemaError(f"attribute {self.name!r}: numeric attributes take no encoding")
        if self.encoding:
            ordinals = sorted(self.encoding.values())
            if ordinals != list(range(1, len(ordinals) + 1)):
                raise SchemaError(
                    f"attribute {self.name!r}: ordinals must be contiguous from 1, got {ordinals}"
                )

    @property
    def is_frozen(self) -> bool:
        return self.kind == NUMERIC or bool(self.encoding)

    def encode_symbol(self, symbol: str) -> int:
        try:
            return self.encoding[symbol]
        except KeyError:
            raise SchemaError(
                f"attribute {self.name!r}: symbol {symbol!r} not in frozen encoding"
            ) from None

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


@dataclass(frozen=True)
class Schema:
    """Column specs plus the optional label column and the marker
    strings that denote a missing cell."""

    attributes: tuple[AttributeSpec, ...]
    label_column: str | None = None
    missing_markers: frozenset[str] = DEFAULT_MISSING_MARKERS

    def __post_init__(self) -> None:
        if not self.attributes:
            raise SchemaError("schema needs at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names: {names}")
        if self.label_column in names:
            raise SchemaError(f"label column {self.label_column!r} collides with an attribute")

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def attribute(self, name: str) -> AttributeSpec:
        for a in self.attributes:
            if a.name == name:
                return a
        raise SchemaError(f"no attribute named {name!r}")

    def to_dict(self) -> dict:
        out: dict = {
            "attributes": [
                {"name": a.name, "kind": a.kind, **({"encoding": dict(a.encoding)} if a.encoding else {})}
                for a in self.attributes
            ],
            "missing_markers": sorted(self.missing_markers),
        }
        if self.label_column is not None:
            out["label_column"] = self.label_column
        return out


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
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc})") from None
    return schema_from_dict(raw)


@dataclass(frozen=True)
class Record:
    """One row: an id, a fixed-arity cell tuple, and an optional
    decision-class label."""

    id: str
    cells: tuple[Cell, ...]
    label: str | None = None

    @property
    def is_complete(self) -> bool:
        return None not in self.cells

    @property
    def missing_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.cells) if c is None)

    @property
    def present_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.cells) if c is not None)


@dataclass(frozen=True)
class Dataset:
    """An immutable sequence of records sharing one schema."""

    schema: Schema
    records: tuple[Record, ...]

    def __post_init__(self) -> None:
        n = self.schema.arity
        for r in self.records:
            if len(r.cells) != n:
                raise SchemaError(f"record {r.id}: expected {n} cells, got {len(r.cells)}")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def classes(self) -> tuple[str, ...]:
        """Distinct labels in sorted order; unlabeled records contribute nothing."""
        return tuple(sorted({r.label for r in self.records if r.label is not None}))

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def is_complete(self) -> bool:
        return all(r.is_complete for r in self.records)

    @cached_property
    def is_encoded(self) -> bool:
        """True when every present cell is numeric (symbols all encoded).
        Checked once per dataset, on the set of cell types: records and
        their cells are immutable."""
        types = set(map(type, chain.from_iterable(r.cells for r in self.records)))
        return all(t is type(None) or issubclass(t, float) for t in types)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The cells as one read-only (m, n) float64 matrix, NaN for each
        missing cell.  Built once per dataset, which must be encoded."""
        if not self.is_encoded:
            raise ValueError("dataset must be encoded before its cells form a matrix")
        return cell_matrix(self.records, self.schema.arity)

    def record(self, record_id: str) -> Record:
        return self._by_id[record_id]

    @cached_property
    def _by_id(self) -> dict[str, Record]:
        """Record per id, the first one when ids repeat."""
        by_id: dict[str, Record] = {}
        for r in self.records:
            by_id.setdefault(r.id, r)
        return by_id

    @cached_property
    def _memo(self) -> dict:
        """Work other modules derive from this dataset and keep for as
        long as it lives (the classifier's fit).  Records and cells are
        immutable, so an entry never goes stale."""
        return {}


def cell_matrix(records: Sequence[Record], arity: int) -> np.ndarray:
    """The records' cells as a read-only (m, arity) float64 matrix, NaN
    for each missing cell.  Raises ValueError when a record does not
    have `arity` cells or holds a symbol that is not a number."""
    matrix = np.array([r.cells for r in records], dtype=float).reshape(len(records), arity)
    matrix.flags.writeable = False
    return matrix


@dataclass(frozen=True)
class GroupSplit:
    """Complete records (g1, the donor pool) and records with at least
    one missing cell (g2, the queries), both in original order."""

    g1: tuple[Record, ...]
    g2: tuple[Record, ...]


def parse_dataset(text: str, schema: Schema, id_prefix: str = "R") -> Dataset:
    """Parse delimited text with a header row into a Dataset.

    Fields matching one of the schema's missing markers become None.
    Numeric fields are parsed as floats (non-finite values and
    magnitudes above MAX_MAGNITUDE rejected), categorical fields stay
    symbols until encode().  Records are assigned ids R1..Rm in row
    order (the prefix is configurable so query files read as Q1..Qm
    next to their training records).  An empty label field means the
    record is unlabeled.
    """
    markers = schema.missing_markers
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise ParseError("no header row")
    expected_header = list(schema.attribute_names)
    if schema.label_column is not None:
        expected_header.append(schema.label_column)
    header = [f.strip() for f in rows[0]]
    if header != expected_header:
        raise ParseError(f"header {header} does not match schema columns {expected_header}")

    n = schema.arity
    want = n + (1 if schema.label_column is not None else 0)
    records = []
    for rownum, row in enumerate(rows[1:], start=2):
        if len(row) != want:
            raise ParseError(f"row {rownum}: expected {want} fields, got {len(row)}")
        cells: list[Cell] = []
        for spec, raw_field in zip(schema.attributes, row[:n]):
            text_value = raw_field.strip()
            if text_value in markers:
                cells.append(None)
                continue
            if spec.kind == NUMERIC:
                try:
                    value = float(text_value)
                except ValueError:
                    raise ParseError(
                        f"row {rownum}: {text_value!r} is not numeric for attribute {spec.name!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"row {rownum}: non-finite value {text_value!r} for attribute {spec.name!r}"
                    )
                if abs(value) > MAX_MAGNITUDE:
                    raise ParseError(
                        f"row {rownum}: {text_value!r} for attribute {spec.name!r} exceeds "
                        f"the magnitude bound {MAX_MAGNITUDE:g}"
                    )
                cells.append(value)
            else:
                if spec.is_frozen and text_value not in spec.encoding:
                    raise SchemaError(
                        f"row {rownum}: symbol {text_value!r} not in the frozen encoding "
                        f"of attribute {spec.name!r}"
                    )
                cells.append(text_value)
        label: str | None = None
        if schema.label_column is not None:
            label_field = row[n].strip()
            label = label_field if label_field else None
        records.append(Record(f"{id_prefix}{rownum - 1}", tuple(cells), label))
    return Dataset(schema, tuple(records))


def read_text(path: str) -> str:
    """The file's contents as UTF-8 text; other bytes are a ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc})") from None


def load_dataset(path: str, schema: Schema) -> Dataset:
    return parse_dataset(read_text(path), schema)


def _columns(dataset: Dataset) -> list[tuple[Cell, ...]]:
    """The cells of each attribute, one tuple per column, in record order."""
    return list(zip(*(r.cells for r in dataset.records))) or [()] * dataset.schema.arity


def _from_columns(dataset: Dataset, schema: Schema, columns: Sequence[Sequence[Cell]]) -> Dataset:
    """The dataset's records, same ids and labels, with cells read from columns."""
    return Dataset(
        schema,
        tuple(Record(r.id, cells, r.label) for r, cells in zip(dataset.records, zip(*columns))),
    )


def encode(dataset: Dataset) -> Dataset:
    """Replace categorical symbols by their ordinals.

    Attributes without a frozen encoding get one built from the data:
    distinct symbols in sorted order, ordinals 1..K.  An explicit
    encoding in the schema always wins, so table reproductions do not
    depend on symbol naming.  Each column is checked and encoded once
    per distinct cell, then mapped with one dict lookup per cell.
    """
    new_specs = []
    new_columns = []
    for spec, column in zip(dataset.schema.attributes, _columns(dataset)):
        if spec.kind == NUMERIC:
            new_specs.append(spec)
            new_columns.append(column)
            continue
        distinct = dict.fromkeys(column)  # first-appearance order
        distinct.pop(None, None)
        for cell in distinct:
            if not isinstance(cell, str):
                r = dataset.records[column.index(cell)]
                raise SchemaError(
                    f"record {r.id}: attribute {spec.name!r} expected a symbol, got {cell!r}"
                )
        if not spec.encoding:
            built = {sym: i for i, sym in enumerate(sorted(distinct), start=1)}
            spec = AttributeSpec(spec.name, spec.kind, built)
        codes = {cell: float(spec.encode_symbol(cell)) for cell in distinct}
        codes[None] = None
        new_specs.append(spec)
        new_columns.append(list(map(codes.__getitem__, column)))
    new_schema = Schema(tuple(new_specs), dataset.schema.label_column, dataset.schema.missing_markers)
    return _from_columns(dataset, new_schema, new_columns)


def decode_dataset(dataset: Dataset) -> Dataset:
    """Render every encoded cell back to its symbol form, decoding each
    distinct value of a column once."""
    columns = []
    for spec, column in zip(dataset.schema.attributes, _columns(dataset)):
        if spec.kind != NUMERIC:
            symbols = {
                cell: None if cell is None else spec.decode_value(float(cell))
                for cell in dict.fromkeys(column)
            }
            column = list(map(symbols.__getitem__, column))
        columns.append(column)
    return _from_columns(dataset, dataset.schema, columns)


def split_groups(dataset: Dataset) -> GroupSplit:
    """Partition records into the complete group and the missing-value
    group, both keeping original order."""
    if not dataset.is_encoded:
        raise ValueError("dataset must be encoded before splitting")
    g1 = tuple(r for r in dataset.records if r.is_complete)
    g2 = tuple(r for r in dataset.records if not r.is_complete)
    return GroupSplit(g1, g2)


def format_number(value: float) -> str:
    """Integral floats render without a trailing .0 so written tables
    look like their sources; everything else uses repr (shortest
    round-tripping form)."""
    if abs(value) < 1e15 and value == int(value):
        return str(int(value))
    return repr(value)


def format_cell(cell: Cell) -> str:
    if cell is None:
        return MISSING_FIELD
    if isinstance(cell, str):
        return cell
    return format_number(cell)


def _format_column(column: Sequence[Cell]) -> list[str]:
    """format_cell over one column.  A column of floats is rendered by
    repr in bulk, then its integral values (found in one NumPy pass)
    are rewritten as integers."""
    if set(map(type, column)) != {float}:
        return list(map(format_cell, column))
    texts = list(map(repr, column))
    values = np.array(column)
    integral = np.flatnonzero((np.abs(values) < 1e15) & (values == np.trunc(values)))
    for i, text in zip(integral.tolist(), map(str, values[integral].astype(np.int64).tolist())):
        texts[i] = text
    return texts


def dataset_to_csv(dataset: Dataset) -> str:
    """Serialize with a header row, newline-terminated, deterministic;
    cells are formatted a column at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(dataset.schema.attribute_names)
    columns = [_format_column(column) for column in _columns(dataset)]
    if dataset.schema.label_column is not None:
        header.append(dataset.schema.label_column)
        columns.append(["" if r.label is None else r.label for r in dataset.records])
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return buf.getvalue()


def write_dataset(dataset: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dataset_to_csv(dataset))
