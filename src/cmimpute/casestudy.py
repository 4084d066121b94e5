"""Recomputes the bundled reference case study under its fixed
cluster partitions and diffs every table against the printed values,
with the source's internal inconsistencies tracked as documented
errata rather than silent fixes."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping

import numpy as np

from .classify import classify_mapped_all, classify_raw_knn
from .dataset import (
    NUMERIC,
    AttributeSpec,
    Dataset,
    Schema,
    encode,
    parse_dataset,
    schema_from_dict,
    split_groups,
)
from .evaluate import mask_cells
from .impute import (
    MODE_ABSOLUTE,
    MODE_SIGNED,
    ImputeConfig,
    difference_table,
    impute_dataset,
    nearest_record,
)
from .kmeans import ClusterModel, FixedPartition, cluster
from .mapping import MappingTable, build_mapping, squared_distances

TOLERANCE = 1e-5

IMPUTATION_PARTITION = (("R1", "R4", "R6", "R9"), ("R2", "R7", "R8"))
CLASSIFICATION_PARTITION = (("R1", "R4", "R6", "R9"), ("R2", "R7", "R8", "R3", "R5"))

# The incoming record classified in the reference tables.
NEW_RECORD_CELLS = (2.0, 5.0, 2.0, 9.0)

# Cells in the two ingest tables that the missing-value table masks.
MASKED_CELLS = (("R3", 2), ("R5", 3))

# Self-consistent mapping values for the missing-value records: the
# sums of each record's printed per-cluster distances (Table X).  The
# printed Table XI instead repeats Table IX's first two values; the
# replay path below reproduces its downstream tables verbatim.
CORRECTED_QUERY_MAP = {"R3": 5.785398, "R5": 6.653158}

# Printed cells contradicted by the source's own arithmetic, with the
# value recomputation forces (frozen at print precision).  Row R9 of
# every classification-phase table duplicates row R1; Table VIII
# already prints 0.829156 for the identical record/centroid pair.
CORRECTED_TABLE19 = {"R9": 0.829156}
CORRECTED_TABLE20 = {"R9": 4.228475}
CORRECTED_TABLE21 = {"R9": 5.057631}
CORRECTED_TABLE22_SECOND = {"R10": 3.268027}
CORRECTED_TABLE24 = {"R9": 0.004247}


def fixture_text(name: str) -> str:
    """Read one bundled fixture file (tests monkeypatch this)."""
    return (resources.files("cmimpute") / "fixtures" / "casestudy" / name).read_text(
        encoding="utf-8"
    )


def load_missing_dataset() -> Dataset:
    """The ingest table with two masked cells, encoded."""
    schema = schema_from_dict(json.loads(fixture_text("schema_missing.json")))
    return encode(parse_dataset(fixture_text("table03_missing_raw.csv"), schema))


def load_normalized_dataset() -> Dataset:
    """The complete encoded table the imputation must recover."""
    schema = Schema(tuple(AttributeSpec(n, NUMERIC) for n in ("A1", "A2", "A3", "A4")), "Class")
    return parse_dataset(fixture_text("table02_normalized.csv"), schema)


def load_classification_dataset() -> Dataset:
    schema = schema_from_dict(json.loads(fixture_text("schema_classification.json")))
    return encode(parse_dataset(fixture_text("table16_classification.csv"), schema))


def _expected_rows(name: str) -> list[list[str]]:
    """The data rows of expected/<name>.csv, header dropped."""
    return list(csv.reader(io.StringIO(fixture_text(f"expected/{name}.csv"))))[1:]


def expected_values(name: str) -> dict[str, float]:
    """record -> value tables from expected/<name>.csv."""
    return {rid: float(value) for rid, value in _expected_rows(name)}


def expected_pairs(name: str) -> dict[str, tuple[float, float]]:
    return {rid: (float(a), float(b)) for rid, a, b in _expected_rows(name)}


def expected_clusters(name: str) -> dict[str, tuple[str, ...]]:
    return {cluster: tuple(members.split(";")) for cluster, members in _expected_rows(name)}


@dataclass(frozen=True)
class CellCheck:
    table: str
    cell: str
    computed: str
    expected: str
    ok: bool


@dataclass(frozen=True)
class Erratum:
    name: str
    printed: str
    computed: str
    note: str


@dataclass(frozen=True)
class CaseStudyReport:
    tolerance: float
    checks: tuple[CellCheck, ...]
    errata: tuple[Erratum, ...]

    @property
    def mismatches(self) -> tuple[CellCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def first_mismatch(self) -> CellCheck | None:
        bad = self.mismatches
        return bad[0] if bad else None


class _Checks:
    """Collects cell comparisons in presentation order: one call per
    printed table, exact and number for the one-off cells."""

    def __init__(self, tolerance: float) -> None:
        self.tolerance = tolerance
        self.rows: list[CellCheck] = []

    def number(self, table: str, cell: str, computed: float, expected: float) -> None:
        ok = abs(computed - expected) <= self.tolerance
        self.rows.append(CellCheck(table, cell, f"{computed:.6f}", f"{expected:.6f}", ok))

    def numbers(self, table: str, ids: Iterable[str], computed: Mapping, printed: Mapping) -> None:
        """One number check per id, in the order of ids."""
        for rid in ids:
            self.number(table, rid, computed[rid], printed[rid])

    def pairs(self, table: str, computed: Iterable[tuple[str, tuple]], printed: Mapping[str, tuple]) -> None:
        """One check per computed (id, pair), against the printed pair of
        the id.  The two values are compared unordered, so the check
        does not depend on how the clusters are numbered."""
        tol = self.tolerance
        for rid, (a, b) in computed:
            x, y = printed[rid]
            ok = (abs(a - x) <= tol and abs(b - y) <= tol) or (abs(a - y) <= tol and abs(b - x) <= tol)
            self.rows.append(CellCheck(table, rid, f"{{{a:.6f}, {b:.6f}}}", f"{{{x:.6f}, {y:.6f}}}", ok))

    def clusters(self, table: str, model: ClusterModel, name: str) -> None:
        """Each printed cluster of expected/<name>.csv, in file order,
        against the model's cluster of that number, as sorted ids."""
        for i, (cid, members) in enumerate(expected_clusters(name).items()):
            self.exact(table, cid, tuple(sorted(model.members(i))), tuple(sorted(members)))

    def exact(self, table: str, cell: str, computed: object, expected: object) -> None:
        self.rows.append(CellCheck(table, cell, str(computed), str(expected), computed == expected))


def run_case_study(tolerance: float = TOLERANCE) -> CaseStudyReport:
    """Recompute Tables VI-X, XII-XV, and XVII-XXIV and compare them
    cell by cell against the bundled printed values."""
    checks = _Checks(tolerance)

    # --- ingestion: masked table encodes to the normalized table ---
    ds = load_missing_dataset()
    normalized = load_normalized_dataset()
    masked, _ = mask_cells(normalized, MASKED_CELLS)
    for r, truth in zip(ds.records, masked.records):
        checks.exact("ingest and encoding (Tables II-III)", r.id, r.cells, truth.cells)

    # --- group split (Tables IV-V) ---
    split = split_groups(ds)
    table = "group split (Tables IV-V)"
    checks.exact(table, "complete group", split.g1.ids, ("R1", "R2", "R4", "R6", "R7", "R8", "R9"))
    checks.exact(table, "missing group", split.g2.ids, ("R3", "R5"))

    # --- imputation-phase clustering (Table VI) ---
    model = cluster(split.g1, 2, FixedPartition(IMPUTATION_PARTITION))
    checks.clusters("clusters (Table VI)", model, "table06_clusters")

    # --- per-centroid distances (Tables VII-VIII) ---
    # The two printed columns are swapped relative to the cluster
    # numbering of Table VI, so each record's pair is compared
    # unordered, which is labeling-independent.
    t7, t8 = expected_values("table07"), expected_values("table08")
    t78 = {rid: (t7[rid], t8[rid]) for rid in t7}
    checks.pairs("centroid distances (Tables VII-VIII)", _distances(split.g1, model.centroids), t78)

    # --- mapping values of the complete group (Table IX) ---
    maps = build_mapping(split.g1, split.g2, model)
    checks.numbers("mapping values (Table IX)", split.g1.ids, maps.complete_map, expected_values("table09"))

    # --- observed-coordinate distances of the queries (Table X) ---
    checks.pairs("query distances (Table X)", _distances(split.g2, model.centroids), expected_pairs("table10"))

    # --- query mapping values: corrected against the Table X sums ---
    printed11 = expected_values("table11")
    checks.numbers("query mapping values (Table XI, corrected)", maps.query_ids, maps.query_map, CORRECTED_QUERY_MAP)

    # --- difference grids under the printed query maps (Tables XII, XIV) ---
    replay_maps = MappingTable(maps.donor_ids, maps.donor_values, list(printed11), list(printed11.values()))
    replay_table = difference_table(replay_maps)
    for name, qid, roman in (("table12", "R3", "XII"), ("table14", "R5", "XIV")):
        column = {rid: replay_table.entries[rid, qid] for rid in replay_table.g1_ids}
        checks.numbers(f"difference grid, replay (Table {roman})", split.g1.ids, column, expected_values(name))

    # --- nearest donor and the imputed cells (Tables XIII, XV) ---
    result = impute_dataset(ds, ImputeConfig(mode=MODE_SIGNED, init=FixedPartition(IMPUTATION_PARTITION)))
    for qid, name, roman in (("R3", "table13", "XIII"), ("R5", "table15", "XV")):
        donor_id, *cells, label = _expected_rows(name)[0]
        donor, table = ds.record(donor_id), f"nearest donor (Table {roman})"
        checks.exact(table, qid, nearest_record(replay_maps, qid, MODE_SIGNED), (donor_id,))
        checks.exact(table, f"{donor_id} row", (donor.cells, donor.label), (tuple(map(float, cells)), label))
    fills = {(f.query_id, f.attr_index): f for f in result.fills}
    checks.exact("imputed cells", "R3.A3", fills[("R3", 2)].value, 2.0)
    checks.exact("imputed cells", "R3.A3 symbol", fills[("R3", 2)].symbol, "d32")
    checks.exact("imputed cells", "R5.A4", fills[("R5", 3)].value, 7.0)
    for r, truth in zip(result.dataset.records, normalized.records):
        checks.exact("completed dataset (Table II recovery)", r.id, r.cells, truth.cells)

    # --- classification phase ---
    cds = load_classification_dataset()
    query = Dataset(cds.schema, ["R10"], [None], np.array([NEW_RECORD_CELLS]).T)

    # raw 1-NN distances (Table XVII)
    knn = classify_raw_knn(query.records[0], cds)
    checks.numbers("raw 1-NN distances (Table XVII)", cds.ids, knn.table, expected_values("table17"))
    checks.exact("raw 1-NN outcome", "nearest", knn.nearest, ("R4", "R9"))
    checks.exact("raw 1-NN outcome", "labels", knn.labels, ("Level-1", "Level-2"))

    # clusters over all records (Table XVIII)
    model2 = cluster(cds, 2, FixedPartition(CLASSIFICATION_PARTITION))
    checks.clusters("clusters (Table XVIII)", model2, "table18_clusters")

    # per-centroid distances (Tables XIX-XX), mapping values (Table XXI), record by record
    t19, t20, t21 = map(expected_values, ("table19", "table20", "table21"))
    cmaps = build_mapping(cds, query, model2)
    for rid, (d1, d2) in _distances(cds, model2.centroids):
        checks.number("centroid distances (Table XIX)", rid, d1, CORRECTED_TABLE19.get(rid, t19[rid]))
        checks.number("centroid distances (Table XX)", rid, d2, CORRECTED_TABLE20.get(rid, t20[rid]))
        checks.number("mapping values (Table XXI)", rid, cmaps.complete_map[rid], CORRECTED_TABLE21.get(rid, t21[rid]))

    # new-record distances and mapping value (Tables XXII-XXIII)
    t22 = expected_pairs("table22")
    d1, d2 = dict(_distances(query, model2.centroids))["R10"]
    checks.number("new-record distances (Table XXII)", "R10 first", d1, t22["R10"][0])
    checks.number("new-record distances (Table XXII, corrected)", "R10 second", d2, CORRECTED_TABLE22_SECOND["R10"])
    t23 = expected_values("table23")
    checks.number("new-record mapping value (Table XXIII)", "R10", cmaps.query_map["R10"], t23["R10"])

    # difference column and the label (Table XXIV)
    t24 = expected_values("table24")
    signed, absolute = (classify_mapped_all(query, cds, model2, mode)[0] for mode in (MODE_SIGNED, MODE_ABSOLUTE))
    checks.numbers("difference column (Table XXIV)", cds.ids, signed.table, t24 | CORRECTED_TABLE24)
    checks.exact("label (signed minimum)", "nearest", signed.nearest, ("R8",))
    checks.exact("label (signed minimum)", "labels", signed.labels, ("Level-2",))
    checks.exact("label (absolute minimum)", "labels", absolute.labels, ("Level-2",))
    checks.exact("label (absolute minimum)", "nearest", absolute.nearest, ("R9",))
    # Replaying the printed mapping column instead puts R8 nearest in
    # both modes, which is what the printed difference column shows.
    printed_maps = MappingTable(list(t21), list(t21.values()), ["R10"], [t23["R10"]])
    replayed = tuple(nearest_record(printed_maps, "R10", mode) for mode in (MODE_SIGNED, MODE_ABSOLUTE))
    checks.exact("label (printed-table replay)", "nearest, both modes", replayed, (("R8",), ("R8",)))

    # --- the documented errata, in report order ---
    errata = (
        Erratum(
            name="Table XI repeats Table IX values",
            printed=f"R3 {printed11['R3']:.6f}, R5 {printed11['R5']:.6f}",
            computed=f"R3 {maps.query_map['R3']:.6f}, R5 {maps.query_map['R5']:.6f}",
            note=(
                "The printed mapping values for the missing-value records equal "
                "Table IX's values for R1 and R2 and contradict the sums of the "
                "printed Table X. Tables XII and XIV follow the printed values and "
                "are reproduced below by replaying them verbatim."
            ),
        ),
        Erratum(
            name="Narrative names R8 as a nearest neighbor",
            printed="nearest to R4 and R8",
            computed=f"minimum {min(knn.table.values()):.6f} attained by R4 and R9",
            note=(
                "The narrative around Table XVII says the new record is nearest "
                "to R4 and R8, but the printed table's minimum 1.414214 is "
                "attained by R4 and R9 (R8 sits at 2.449490). The two-class "
                "ambiguity is unchanged: R4 carries Level-1, R9 carries Level-2."
            ),
        ),
        Erratum(
            name="Table XXII digit transposition",
            printed=f"{t22['R10'][1]:.6f}",
            computed=f"{d2:.6f}",
            note=(
                "The printed second cluster distance transposes two digits; the "
                "printed Table XXIII sum (5.053384) already uses the corrected "
                "value."
            ),
        ),
        Erratum(
            name="Row R9 of the classification tables duplicates row R1",
            printed=f"Tables XIX/XX/XXI/XXIV print {_row_r9(t19, t20, t21, t24)} for R9, each equal to row R1",
            computed=_row_r9(CORRECTED_TABLE19, CORRECTED_TABLE20, CORRECTED_TABLE21, CORRECTED_TABLE24),
            note=(
                "The cluster means force these values, and Table VIII already "
                "prints 0.829156 for the identical record and centroid. With the "
                "recomputed column the absolute-mode minimum for the new record "
                "is R9 (0.004247) rather than R8 (0.198645); both carry Level-2, "
                "so the predicted label is unchanged. The signed minimum is R8 "
                "either way."
            ),
        ),
    )
    return CaseStudyReport(tolerance, tuple(checks.rows), errata)


def _row_r9(*tables: Mapping[str, float]) -> str:
    """Row R9 of each table at print precision, slash-separated."""
    return " / ".join(f"{table['R9']:.6f}" for table in tables)


def _distances(group: Dataset, centroids) -> list[tuple[str, tuple[float, ...]]]:
    """Each record's distances to the centroids over its observed
    cells, keyed by its id: one kernel call for the whole group."""
    return list(zip(group.ids, map(tuple, np.sqrt(squared_distances(group.matrix, centroids)).tolist())))


def render_report(report: CaseStudyReport) -> str:
    """Human-readable diff report: one line per table, mismatching
    cells spelled out, errata listed with printed vs computed."""
    lines = ["case-study reproduction", f"tolerance {report.tolerance:g}", ""]
    grouped: dict[str, list[CellCheck]] = {}
    for check in report.checks:
        grouped.setdefault(check.table, []).append(check)
    for table, rows in grouped.items():
        bad = [c for c in rows if not c.ok]
        if not bad:
            lines.append(f"  ok    {table} ({len(rows)} checks)")
        else:
            lines.append(f"  FAIL  {table} ({len(bad)} of {len(rows)} checks)")
            for c in bad:
                lines.append(f"          {c.cell}: computed {c.computed}, expected {c.expected}")
    lines.append("")
    lines.append("documented errata")
    for i, erratum in enumerate(report.errata, start=1):
        lines.append(f"  {i}. {erratum.name}")
        lines.append(f"     printed:  {erratum.printed}")
        lines.append(f"     computed: {erratum.computed}")
        lines.append(f"     {erratum.note}")
    lines.append("")
    lines.append(
        f"{len(report.checks)} checks, {len(report.mismatches)} mismatches, "
        f"{len(report.errata)} documented errata"
    )
    return "\n".join(lines) + "\n"
