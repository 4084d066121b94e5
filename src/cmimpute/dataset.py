"""Schema definition, delimited-text ingestion (categorical symbols
become ordinals as they are read), missing-cell representation, the
complete/incomplete group split and the writer, which turns ordinals
back into symbols."""

from __future__ import annotations

import csv
import io
import math
import re
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DecodeError, ParseError, SchemaError, read_json, read_text

# A cell is a number (a categorical cell holds its symbol's ordinal),
# or None for a missing value.
Cell = float | None

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
# The SchemaError message for a record's cell beyond it (or infinite): record id, value, attribute name.
TOO_LARGE = "record {}: {} for attribute {!r} exceeds the magnitude bound %g" % MAX_MAGNITUDE


class AttributeSpec:
    """One column: its name, kind, and (for categoricals) the symbol
    to ordinal encoding map.  Never mutated.

    Ordinals are contiguous positive integers starting at 1 so that
    decoding can invert the map without ambiguity.  An empty encoding
    on a categorical attribute means "not yet frozen": parse_dataset
    builds one from the data in sorted symbol order.
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


class FieldText:
    """A numeric column's fields as read, "\n"-joined into one text, and
    the values parsed from them, a column view of the parsed matrix.
    The writer copies a canonical field (see _canonical_fields) wherever
    its cell still holds its parsed value.  Never mutated."""

    def __init__(self, text: str, values: np.ndarray) -> None:
        self.text, self.values = text, values
        values.flags.writeable = False  # a view of the matrix, which a dataset never writes

    @cached_property
    def canonical(self) -> np.ndarray:
        """Per field, whether it is canonical: computed on the first
        write, so a dataset that is never written never pays for it.  A
        field holding a line break (csv.reader reads one from a quoted
        field) would split the text anew, so in that column no field
        counts as canonical and every cell is rendered."""
        if self.text.count("\n") != len(self.values) - 1:
            return np.zeros(len(self.values), dtype=bool)
        return _canonical_fields(self.text, len(self.values))


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


def _cells(column: np.ndarray) -> Sequence[Cell]:
    """A matrix column's cells as a record holds them: None if missing."""
    values = column.tolist()
    return [None if v != v else v for v in values] if np.isnan(column).any() else values


class Dataset:
    """Rows sharing one schema: the record ids, the labels (None when
    unlabeled) and one read-only, C-contiguous float64 (m, n) matrix of
    the cells, a categorical one holding its symbol's ordinal and a
    missing one NaN.  The constructor reads None as NaN, takes over a
    C-contiguous float64 array uncopied, and refuses a matrix of another
    shape or labels of another length, and, as the parser does, a cell
    beyond MAX_MAGNITUDE or infinite (each a SchemaError).  Records are a
    view of the matrix, built when first read.  A dataset parsed from
    text keeps each numeric column's FieldText (None for every other
    column), which imputation passes on and every other constructor
    drops.  A dataset is never mutated."""

    def __init__(
        self, schema: Schema, ids: Sequence[str], labels: Sequence[str | None], matrix, field_texts=None
    ) -> None:
        self.schema, self.ids, self.labels = schema, tuple(ids), tuple(labels)
        shape = (len(self.ids), schema.arity)
        matrix = np.ascontiguousarray(matrix, dtype=float)
        self.matrix = X = matrix.reshape(0, shape[1]) if matrix.shape == (0,) else matrix  # [] holds no rows
        if self.matrix.shape != shape or len(self.labels) != shape[0]:
            raise SchemaError(f"a {shape} dataset got a {self.matrix.shape} matrix and {len(self.labels)} labels")
        if X.size and max(np.fmax.reduce(X.ravel()), -np.fmin.reduce(X.ravel())) > MAX_MAGNITUDE:  # both skip NaN
            i, j = divmod(int((np.abs(X) > MAX_MAGNITUDE).argmax()), shape[1])
            raise SchemaError(TOO_LARGE.format(self.ids[i], float(X[i, j]), schema.attributes[j].name))
        self.matrix.flags.writeable = False
        self.field_texts = tuple(field_texts) if field_texts is not None else (None,) * shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        """Same schema, ids, labels and cells, a missing cell equal to a
        missing cell; field texts are not compared."""
        if not isinstance(other, Dataset):
            return NotImplemented
        heads = [(d.schema, d.ids, d.labels) for d in (self, other)]
        return heads[0] == heads[1] and np.array_equal(self.matrix, other.matrix, equal_nan=True)

    @property
    def classes(self) -> tuple[str, ...]:
        """Distinct labels in sorted order; unlabeled records contribute nothing."""
        return tuple(sorted(set(self.labels) - {None}))

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def is_complete(self) -> bool:
        return not np.isnan(self.matrix).any()

    @cached_property
    def records(self) -> tuple[Record, ...]:
        return tuple(map(Record, self.ids, zip(*map(_cells, self.matrix.T)), self.labels))

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
        return Dataset(self.schema, [self.ids[i] for i in rows], [self.labels[i] for i in rows], self.matrix[index])

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


BLOCK = 1 << 15  # parse_dataset cuts the text after the first run of line breaks past every BLOCK characters
_CUT = re.compile(r"\n+|\Z")


def parse_dataset(text: str, schema: Schema, id_prefix: str = "R") -> Dataset:
    """Parse delimited text with a header row into a Dataset.

    Each field is stripped; one that then matches a missing marker
    becomes a missing cell.  Per numeric column, NumPy reads every other
    field with float() in one cast (non-finite values and magnitudes
    above MAX_MAGNITUDE rejected).  Per categorical column, every other
    field is a symbol and the cell holds its ordinal.  An encoding the
    schema gives is frozen, and a symbol outside it is an error; an
    attribute without one gets its distinct symbols in sorted order,
    ordinals 1..K, and the dataset's schema carries that encoding.
    Records are assigned ids R1..Rm in row order (the prefix
    is configurable so query files read as Q1..Qm next to their training
    records).  An empty label field means the record is unlabeled.  If
    each block of lines (see BLOCK) splits as csv.reader reads it (see
    _split_fields), the blocks are split and parsed one at a time, a
    column at a time, so no list of every line or field is ever alive;
    else csv.reader reads the text as one block.  When a block's check
    fails, or a row csv.reader reads has the wrong width, its rows are
    checked again one at a time, so the error names the first bad row.
    """
    header = list(schema.attribute_names)
    if schema.label_column is not None:
        header.append(schema.label_column)
    dataset = _parse_blocks(_split_blocks(text, header), schema, id_prefix)
    return _parse_blocks(_read_blocks(text, schema, header), schema, id_prefix) if dataset is None else dataset


def _split_blocks(text: str, header: list[str]) -> Iterator[list | None]:
    """Each block's columns of fields, the header left out; None for the
    first block _split_fields cannot read or with another header."""
    start, width = 0, len(header)
    while start < len(text) or not start:  # an empty text too: it has no header
        end = _CUT.search(text, start + BLOCK).end()
        flat = _split_fields(text[start:end], width)
        if flat is None or not start and [f.strip() for f in flat[:width]] != header:
            yield None
            return
        skip = 0 if start else width + 1
        if len(flat) > skip:
            yield [flat[j :: width + 1] for j in range(skip, skip + width)]
        start = end


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


def _read_blocks(text: str, schema: Schema, header: list[str]) -> list[list]:
    """The body of the text's non-blank rows as csv.reader reads them,
    one block of columns of fields, once the header and widths check."""
    rows: list[list[str]] = []
    try:
        for row in csv.reader(io.StringIO(text)):
            if row:
                rows.append(row)
    except csv.Error as exc:  # a field past csv.field_size_limit(), say
        raise ParseError(f"row {len(rows) + 1}: {exc}") from None
    if not rows:
        raise ParseError("no header row")
    if [f.strip() for f in rows[0]] != header:
        raise ParseError(f"header {[f.strip() for f in rows[0]]} does not match schema columns {header}")
    if any(len(row) != len(header) for row in rows[1:]):
        _raise_first_error(rows[1:], schema, len(header))
    return [list(zip(*rows[1:])) or [()] * len(header)]


def _parse_blocks(blocks: Iterable, schema: Schema, id_prefix: str) -> Dataset | None:
    """The dataset the blocks of columns of fields hold, or None if one
    is None: then csv.reader must read the text, and name any error."""
    n, parts, kept, labels, classes = schema.arity, [np.empty((0, schema.arity))], {}, [], {}
    for columns in blocks:
        if columns is None:
            return None
        try:
            _parse_columns(columns, schema, part := np.empty((len(columns[0]), n)), kept)
        except (ParseError, SchemaError):
            if None in blocks:  # a later block does not split
                return None
            _raise_first_error(list(zip(*columns)), schema, len(columns), len(labels) + 2)
            raise
        parts.append(part)
        label_fields = map(str.strip, columns[n]) if n < len(columns) else ("",) * len(part)  # "": unlabeled
        labels += [classes.setdefault(t, t) or None for t in label_fields]  # one str object per class name
    matrix, specs, texts = np.concatenate(parts), list(schema.attributes), [None] * n
    for j, spec in enumerate(specs):
        if spec.kind == NUMERIC:
            texts[j] = FieldText("\n".join(kept.pop(j, ())), matrix[:, j])
        elif not spec.encoding:  # sorted once, and its column remapped by one take
            codes = kept.get(j, {})
            encoding = {s: i for i, s in enumerate(sorted(s for s in codes if codes[s] >= 0), 1)}
            remap = np.full(len(codes) + 1, math.nan)  # a marker's NaN code reads as -1, the last entry
            remap[[int(codes[s]) for s in encoding]] = list(encoding.values())
            matrix[:, j] = remap[np.nan_to_num(matrix[:, j], nan=-1.0).astype(np.intp)]
            specs[j] = AttributeSpec(spec.name, CATEGORICAL, encoding)
    schema = Schema(tuple(specs), schema.label_column, schema.missing_markers)
    return Dataset(schema, [f"{id_prefix}{i}" for i in range(1, len(labels) + 1)], labels, matrix, texts)


def _raise_first_error(body: Sequence[Sequence[str]], schema: Schema, width: int, first_row: int = 2) -> None:
    """Check the body rows, the first numbered first_row, in row order
    and raise for the first bad one: its width, or else its first field."""
    for rownum, row in enumerate(body, start=first_row):
        if len(row) != width:
            raise ParseError(f"row {rownum}: expected {width} fields, got {len(row)}")
        _parse_columns([(f,) for f in row], schema, np.empty((1, schema.arity)), {}, rownum)


def _parse_columns(fields: list, schema: Schema, out: np.ndarray, kept: dict, first_row: int = 2) -> None:
    """Parse the fields, given a column at a time (any label fields
    after the attributes' are not read), into out, their rows of the
    matrix.  kept carries per column what earlier blocks left: a numeric
    one's texts, or a categorical one's code per symbol (a frozen ordinal,
    else its order of first sight; NaN for a marker).  Raises for a bad
    field, named right only for a single row (_raise_first_error)."""
    markers, nan = schema.missing_markers, math.nan
    for j, (spec, raw) in enumerate(zip(schema.attributes, fields)):
        if spec.kind == CATEGORICAL:
            if j not in kept:
                kept[j] = {s: float(o) for s, o in spec.encoding.items()} | {s: nan for s in markers}
            symbols, codes = [*map(str.strip, raw)], kept[j]
            new = set(symbols) - codes.keys()
            if spec.encoding and new:
                raise SchemaError(
                    f"row {first_row}: symbol {symbols[0]!r} not in the frozen encoding "
                    f"of attribute {spec.name!r}"
                )
            codes.update((s, float(i)) for i, s in enumerate(new, len(codes)))
            out[:, j] = np.fromiter(map(codes.__getitem__, symbols), float, len(symbols))
            continue
        try:
            values = np.array([nan if (t := f.strip()) in markers else t for f in raw], dtype=float)
        except ValueError:
            field = raw[0].strip()
            raise ParseError(f"row {first_row}: {field!r} is not numeric for attribute {spec.name!r}") from None
        for i in (~(np.abs(values) <= MAX_MAGNITUDE)).nonzero()[0].tolist():  # NaN fails <=
            t = raw[i].strip()
            if t in markers:
                continue
            if not math.isfinite(values[i]):
                raise ParseError(f"row {first_row + i}: non-finite value {t!r} for attribute {spec.name!r}")
            raise ParseError(
                f"row {first_row + i}: {t!r} for attribute {spec.name!r} exceeds "
                f"the magnitude bound {MAX_MAGNITUDE:g}"
            )
        out[:, j] = values
        kept.setdefault(j, []).append("\n".join(raw))


def load_dataset(path: str, schema: Schema) -> Dataset:
    return parse_dataset(read_text(path), schema)


def encode(dataset: Dataset) -> Dataset:
    """The dataset itself: parse_dataset stores ordinals.  Only perfbench
    still names this function."""
    return dataset


def decode_dataset(dataset: Dataset) -> Dataset:
    """The dataset itself: dataset_to_csv writes symbols.  Only perfbench
    still names this function."""
    return dataset


def split_groups(dataset: Dataset) -> GroupSplit:
    """Partition records into the complete group and the missing-value
    group, both keeping original order."""
    incomplete = np.isnan(dataset.matrix).any(axis=1)
    return GroupSplit(dataset.take(np.flatnonzero(~incomplete)), dataset.take(np.flatnonzero(incomplete)))


def format_number(value: float) -> str:
    """Integral floats render without a trailing .0 so written tables
    look like their sources; everything else uses repr (shortest
    round-tripping form)."""
    if abs(value) < 1e15 and value == int(value):
        return str(int(value))
    return repr(value)


def format_column(column: np.ndarray) -> list[str]:
    """The column's cells as text: the missing marker or format_number's
    rendering.  The column is rendered by repr in bulk, then its
    integral values (found in one NumPy pass) are rewritten as integers
    and its NaNs as the marker."""
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
    whose cell still equals the value parsed from it (the text is split
    only then) and rendering the rest; NaN equals nothing, so every
    missing or filled cell is rendered."""
    copied = kept.canonical & (kept.values == column)
    if not copied.any():
        return format_column(column)
    texts, rest = kept.text.split("\n"), np.flatnonzero(~copied)
    for i, text in zip(rest.tolist(), format_column(column[rest])):
        texts[i] = text
    return texts


def _symbol_column(spec: AttributeSpec, column: np.ndarray) -> list[str]:
    """The categorical column's symbols, each distinct ordinal decoded
    once, and the missing marker for NaN."""
    values = column.tolist()
    symbols = {v: spec.decode_value(v) for v in dict.fromkeys(values) if v == v}
    return [symbols.get(v, MISSING_FIELD) for v in values]  # NaN finds no symbol


def dataset_to_csv(dataset: Dataset) -> str:
    """Serialize with a header row, newline-terminated, deterministic;
    cells are formatted a column at a time, a categorical column as its
    symbols, and a numeric column with a FieldText keeps the fields it
    can."""
    header = list(dataset.schema.attribute_names)
    columns = [
        _symbol_column(spec, column)
        if spec.kind == CATEGORICAL
        else format_column(column)
        if kept is None
        else _kept_column(column, kept)
        for spec, column, kept in zip(dataset.schema.attributes, dataset.matrix.T, dataset.field_texts)
    ]
    if dataset.schema.label_column is not None:
        header.append(dataset.schema.label_column)
        columns.append(["" if label is None else label for label in dataset.labels])
    return csv_text(header, columns)


def write_dataset(dataset: Dataset, path: str) -> None:
    text = dataset_to_csv(dataset)  # a symbol that fails to decode leaves no file behind
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
