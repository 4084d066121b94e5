"""Inputs, the timed op and the output oracle of each workload.

Inputs come from the benchmark's own NumPy generator, seeded by the run
seed, and reach the program only as CSV and schema files (or as the
datasets the program parses from them), so a change to the library
cannot change a workload.  Oracles recompute mapping values with the
library's own left-to-right per-coordinate Python arithmetic: NumPy's
``x ** 2`` differs from Python's in the last bit for about one value in
a thousand, which would break exact-float tie sets.  Only elementwise
subtraction, ``abs`` and ``min``, which round identically in both, run
vectorised.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from collections import Counter
from pathlib import Path
from typing import Iterator

import numpy as np

from cmimpute import classify, cli, dataset, evaluate, impute, kmeans

import tracer

MISSING = "?"
MISSING_MARKERS = {"?", "NaN", ""}

# --- input generators -------------------------------------------------

# impute-mcar shape: six latent segments on one axis, paired into three
# bimodal classes; six continuous numerics follow the latent value with
# small noise and a six-symbol categorical names the segment.
SEGMENT_CENTERS = (0.0, 11.0, 26.0, 44.0, 63.0, 85.0)
SEGMENT_WEIGHTS = (6, 5, 5, 4, 3, 2)
SEGMENT_CLASS = ("C1", "C2", "C3", "C1", "C2", "C3")
SLOPES = (0.45, 0.52, 0.38, 0.61, 0.47, 0.55)
INTERCEPTS = (0.05, -0.1, 0.0, 0.15, -0.05, 0.1)
NOISE = 0.02
LATENT_SPAN = 85.0

MIXED_SCHEMA = {
    "attributes": [{"name": f"x{j + 1}", "kind": "numeric"} for j in range(len(SLOPES))]
    + [{"name": "seg", "kind": "categorical"}],
    "label_column": "class",
}

def mixed_rows(rng: np.random.Generator, rows: int) -> list[list[str]]:
    """Complete labeled rows of the impute-mcar shape, as CSV fields.
    Segment sizes are allocated by weight, so every segment occurs."""
    weights = np.array(SEGMENT_WEIGHTS, dtype=float)
    counts = np.floor(weights * rows / weights.sum()).astype(int)
    counts[np.argsort(-(weights * rows / weights.sum() - counts), kind="stable")[: rows - counts.sum()]] += 1
    segments = rng.permutation(np.repeat(np.arange(len(weights)), counts))
    t = np.array(SEGMENT_CENTERS)[segments] + rng.uniform(-1.0, 1.0, rows)
    x = np.array(SLOPES) * t[:, None] / LATENT_SPAN + np.array(INTERCEPTS)
    x = np.round(x + rng.normal(0.0, NOISE, x.shape), 6)
    return [
        [repr(v) for v in row] + [f"s{s + 1}", SEGMENT_CLASS[s]]
        for row, s in zip(x.tolist(), segments.tolist())
    ]


def mask_mcar(rng: np.random.Generator, rows: list[list[str]], n: int, rate: float) -> set[tuple[int, int]]:
    """Blank round(rate * m * n) uniformly chosen attribute cells in
    place, never every cell of a row; returns the (row, column) set."""
    m = len(rows)
    target = round(rate * m * n)
    per_row: Counter = Counter()
    masked: set[tuple[int, int]] = set()
    for flat in rng.permutation(m * n).tolist():
        if len(masked) == target:
            break
        row, col = divmod(flat, n)
        if per_row[row] < n - 1:
            per_row[row] += 1
            masked.add((row, col))
    for row, col in masked:
        rows[row][col] = MISSING
    return masked


def write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def header_of(schema: dict) -> list[str]:
    return [a["name"] for a in schema["attributes"]] + [schema["label_column"]]


# --- shared oracles -----------------------------------------------------


class Encoded:
    """A generated table as the oracle sees it: float cells (None where
    missing) under the encoding the README specifies (ordinals from 1 in
    sorted symbol order of the symbols present)."""

    def __init__(self, schema: dict, rows: list[list[str]], symbols: list | None = None) -> None:
        self.kinds = [a["kind"] for a in schema["attributes"]]
        n = len(self.kinds)
        self.symbols: list[list[str] | None] = symbols or [
            sorted({r[j] for r in rows if r[j] != MISSING}) if kind == "categorical" else None
            for j, kind in enumerate(self.kinds)
        ]
        codes = [
            {s: float(i) for i, s in enumerate(syms, start=1)} if syms else None
            for syms in self.symbols
        ]
        self.cells = [
            [None if r[j] == MISSING else (codes[j][r[j]] if codes[j] else float(r[j])) for j in range(n)]
            for r in rows
        ]
        self.labels = [r[n] if len(r) > n else None for r in rows]
        self.ids = [f"R{i + 1}" for i in range(len(rows))]

    def decode(self, j: int, value: float) -> str | None:
        syms = self.symbols[j]
        return syms[int(value) - 1] if syms else None


def map_value(cells: list[float | None], centroids) -> float:
    """Sum of partial Euclidean distances to every centroid, in the
    library's order of operations."""
    return sum(
        math.sqrt(sum((c - u) ** 2 for c, u in zip(cells, centroid) if c is not None))
        for centroid in centroids
    )


def check_fixed_point(model, ids: list[str], points: np.ndarray) -> str | None:
    """None when the model is a Lloyd fixed point over the points: every
    cluster non-empty, every point at a nearest centroid, every centroid
    the mean of its members (up to rounding)."""
    centers = np.array(model.centroids, dtype=float)
    if not np.isfinite(centers).all():
        return "non-finite centroid"
    try:
        labels = np.array([model.assignment[i] for i in ids])
    except KeyError as exc:
        return f"model assignment lacks {exc}"
    if len(model.assignment) != len(ids):
        return "model assignment covers other records"
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    own = d2[np.arange(len(ids)), labels]
    if (own > d2.min(axis=1) * (1 + 1e-12) + 1e-12).any():
        return "a point is not assigned to its nearest centroid"
    for c in range(len(centers)):
        members = points[labels == c]
        if len(members) == 0:
            return f"cluster {c} is empty"
        if not np.allclose(members.mean(axis=0), centers[c], rtol=1e-12, atol=1e-12):
            return f"centroid {c} is not the mean of its members"
    return None


def nearest(donor_maps: np.ndarray, query_map: float) -> np.ndarray:
    """Indices of every donor attaining the minimal absolute difference,
    exact-float ties, in donor order."""
    key = np.abs(donor_maps - query_map)
    return np.flatnonzero(key == key.min())


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()[:16]


@contextlib.contextmanager
def quiet() -> Iterator[None]:
    """Swallow what the CLI prints, so stdout stays the benchmark's."""
    with contextlib.redirect_stdout(io.StringIO()):
        yield


# --- workloads ------------------------------------------------------------


class Workload:
    """Set-up happens in __init__; op(i) is the timed unit of work and
    check(i, out) its untimed oracle, returning None or a reason."""

    # Ops in one pass over the workload's distinct inputs.  The run makes
    # at least one full pass, and traced counts are totals over one pass.
    pass_ops = 1

    def setup_program(self) -> None:
        """User-visible set-up beyond importing cmimpute, repeated to
        time it; the last repetition is the one the ops use."""

    def warm_up(self) -> str | None:
        return self.check(0, self.op(0))

    def verify_repeats(self) -> list[str | None]:
        """Untimed re-runs after the loop: None or a reason for each."""
        return []


class ImputeWorkload(Workload):
    """`cmimpute impute --mode absolute` in-process, file in and file out."""

    def __init__(self, workdir: Path, seed: int, size: dict) -> None:
        rng = np.random.default_rng([seed, 0])
        self.schema = MIXED_SCHEMA
        rows = mixed_rows(rng, size["rows"])
        self.masked = mask_mcar(rng, rows, len(self.schema["attributes"]), size["missing_rate"])
        self.rows = rows
        self.data = workdir / "data.csv"
        self.schema_path = workdir / "schema.json"
        self.out = workdir / "out.csv"
        self.report = workdir / "report.csv"
        write_csv(self.data, header_of(self.schema), rows)
        self.schema_path.write_text(json.dumps(self.schema), encoding="utf-8")
        self.argv = [
            "impute",
            "--data", str(self.data),
            "--schema", str(self.schema_path),
            "--mode", "absolute",
            "--seed", "0",
            "--out", str(self.out),
            "--report", str(self.report),
        ]
        self.reference: tuple[bytes, bytes] | None = None

    def op(self, i: int) -> int:
        with quiet():
            return cli.main(self.argv)

    def outputs(self) -> tuple[bytes, bytes]:
        return self.out.read_bytes(), self.report.read_bytes()

    def warm_up(self) -> str | None:
        """The warm-up op doubles as the untimed impute_dataset call
        whose model and fills the oracle recomputes."""
        results = []
        with tracer.intercept(impute.impute_dataset, results.append):
            code = self.op(0)
        if code != 0:
            return f"cmimpute impute exited {code}"
        self.reference = self.outputs()
        return self.check_reference(results[-1].model, *self.reference)

    def check(self, i: int, code: int) -> str | None:
        if code != 0:
            return f"cmimpute impute exited {code}"
        if self.outputs() != self.reference:
            return "output differs from the first op's"
        return None

    def digest(self) -> str:
        return digest(*self.reference) if self.reference else "none"

    def check_reference(self, model, out: bytes, report: bytes) -> str | None:
        """The full oracle over one op's output CSV and provenance."""
        table = Encoded(self.schema, self.rows)
        n = len(table.kinds)
        g1 = [i for i, cells in enumerate(table.cells) if None not in cells]
        points = np.array([table.cells[i] for i in g1], dtype=float)
        reason = check_fixed_point(model, [table.ids[i] for i in g1], points)
        if reason:
            return reason
        donor_maps = np.array([map_value(table.cells[i], model.centroids) for i in g1])
        expected = {}
        donors_of: dict[int, list[int]] = {}
        for row, col in sorted(self.masked):
            if row not in donors_of:
                query_map = map_value(table.cells[row], model.centroids)
                hits = nearest(donor_maps, query_map)
                donors_of[row] = [g1[h] for h in hits]
            donors = donors_of[row]
            value, policy = self.fill(table, g1, donor_maps, donors, col)
            expected[(table.ids[row], self.schema["attributes"][col]["name"])] = (
                ";".join(table.ids[d] for d in donors), value, policy, table.decode(col, value)
            )

        got = {}
        for rec in csv.DictReader(io.StringIO(report.decode("utf-8"))):
            got[(rec["query"], rec["attribute"])] = (
                rec["donors"], float(rec["value"]), rec["tie_policy"], rec["symbol"] or None
            )
        if got.keys() != expected.keys():
            return "provenance does not list exactly the masked cells"
        for cell, want in expected.items():
            if got[cell] != want:
                return f"fill {cell}: got {got[cell]}, oracle {want}"

        written = read_csv(out)
        if written[0] != header_of(self.schema) or len(written) != len(self.rows) + 1:
            return "output header or row count differs from the input"
        for r, (src, dst) in enumerate(zip(self.rows, written[1:])):
            for c, (a, b) in enumerate(zip(src, dst)):
                if b in MISSING_MARKERS or b.lower() == "nan":
                    return f"output row {r + 1} column {c + 1} is missing"
                if c < n and table.kinds[c] == "numeric" and not math.isfinite(float(b)):
                    return f"output row {r + 1} column {c + 1} is not finite"
                if a == MISSING:
                    want = expected[(table.ids[r], self.schema["attributes"][c]["name"])]
                    same = b == want[3] if want[3] is not None else float(b) == want[1]
                elif c < n and table.kinds[c] == "numeric":
                    same = float(a) == float(b)
                else:
                    same = a == b
                if not same:
                    return f"output row {r + 1} column {c + 1}: {b!r} (input {a!r})"
            if len(src) != len(dst):
                return f"output row {r + 1} has {len(dst)} fields"
        return None

    @staticmethod
    def fill(table: Encoded, g1: list[int], donor_maps: np.ndarray, donors: list[int], col: int):
        """Value and tie policy for one missing cell: a single donor's
        value, else the mean or mode over the donors' majority class."""
        if len(donors) == 1:
            return table.cells[donors[0]][col], "single-donor"
        labels = [table.labels[d] for d in donors if table.labels[d] is not None]
        if labels:
            counts = Counter(labels)
            top = max(counts.values())
            tied = {c for c, k in counts.items() if k == top}
            if len(tied) == 1:
                klass = tied.pop()
            else:
                map_of = dict(zip(g1, donor_maps.tolist()))
                klass = table.labels[min((d for d in donors if table.labels[d] in tied), key=map_of.get)]
            pool = [i for i in g1 if table.labels[i] == klass]
            suffix = "same-class"
        else:
            pool, suffix = donors, "tied-donors"
        values = [table.cells[i][col] for i in pool]
        if table.kinds[col] == "categorical":
            counts = Counter(values)
            top = max(counts.values())
            return min(v for v, k in counts.items() if k == top), f"modal-{suffix}"
        return sum(values) / len(values), f"mean-{suffix}"


class ClassifyWorkload(Workload):
    """Per-query classify_mapped then classify_raw_knn against a model
    fitted during set-up, as `classify --with-knn-baseline` does."""

    def __init__(self, workdir: Path, seed: int, size: dict) -> None:
        train_rows = mixed_rows(np.random.default_rng([seed, 0]), size["train_rows"])
        query_rows = [r[:-1] for r in mixed_rows(np.random.default_rng([seed, 1]), size["queries"])]
        self.pass_ops = len(query_rows)
        self.train_path = workdir / "train.csv"
        self.query_path = workdir / "query.csv"
        self.schema_path = workdir / "schema.json"
        write_csv(self.train_path, header_of(MIXED_SCHEMA), train_rows)
        write_csv(self.query_path, header_of(MIXED_SCHEMA)[:-1], query_rows)
        self.schema_path.write_text(json.dumps(MIXED_SCHEMA), encoding="utf-8")
        self.train_table = Encoded(MIXED_SCHEMA, train_rows)
        self.query_table = Encoded(MIXED_SCHEMA, query_rows, self.train_table.symbols)
        self.answers: dict[int, tuple] = {}

    def setup_program(self) -> None:
        schema = dataset.load_schema(str(self.schema_path))
        self.train = dataset.encode(dataset.load_dataset(str(self.train_path), schema))
        query_schema = dataset.Schema(self.train.schema.attributes, None, self.train.schema.missing_markers)
        text = self.query_path.read_text(encoding="utf-8")
        self.queries = dataset.encode(dataset.parse_dataset(text, query_schema, id_prefix="Q")).records
        self.model = kmeans.cluster(self.train.records, self.train.n_classes, kmeans.FarthestFirst(0))

    def build_oracle(self) -> str | None:
        """Brute-force mapped and raw-kNN answers for every query."""
        table = self.train_table
        points = np.array(table.cells, dtype=float)
        reason = check_fixed_point(self.model, table.ids, points)
        if reason:
            return reason
        maps = np.array([map_value(cells, self.model.centroids) for cells in table.cells])
        self.expected = []
        for q in self.query_table.cells:
            mapped = nearest(maps, map_value(q, self.model.centroids))
            dist = np.array([math.sqrt(sum((a - b) ** 2 for a, b in zip(q, cells))) for cells in table.cells])
            knn = np.flatnonzero(dist == dist.min())
            self.expected.append(
                tuple(
                    part
                    for hits in (mapped, knn)
                    for part in (
                        tuple(sorted({table.labels[h] for h in hits})),
                        tuple(table.ids[h] for h in hits),
                    )
                )
            )
        return None

    def op(self, i: int) -> tuple:
        query = self.queries[i % self.pass_ops]
        mapped = classify.classify_mapped(query, self.train, self.model, "absolute")
        knn = classify.classify_raw_knn(query, self.train)
        return mapped.labels, mapped.nearest, knn.labels, knn.nearest

    def warm_up(self) -> str | None:
        return self.build_oracle() or self.check(0, self.op(0))

    def check(self, i: int, answer: tuple) -> str | None:
        self.answers.setdefault(i % self.pass_ops, answer)
        want = self.expected[i % self.pass_ops]
        return None if answer == want else f"query {i % self.pass_ops}: got {answer}, oracle {want}"

    def digest(self) -> str:
        if len(self.answers) < self.pass_ops:
            return "none"
        return digest(json.dumps([self.answers[q] for q in range(self.pass_ops)]).encode())


class EvaluateWorkload(Workload):
    """One run_experiment trial per op on a small labeled table.  Ops
    cycle through several tables drawn from the seed, so a run's median
    does not hang on how one 60-row draw happens to cluster."""

    # Ops re-run after the loop to check that a master seed replays.
    REPEATS = 4

    def __init__(self, workdir: Path, seed: int, size: dict) -> None:
        self.seed = seed
        self.pass_ops = size["tables"]
        schema_path = workdir / "schema.json"
        schema_path.write_text(json.dumps(MIXED_SCHEMA), encoding="utf-8")
        schema = dataset.load_schema(str(schema_path))
        self.datasets = []
        for t in range(self.pass_ops):
            path = workdir / f"data{t}.csv"
            write_csv(path, header_of(MIXED_SCHEMA), mixed_rows(np.random.default_rng([seed, 0, t]), size["rows"]))
            self.datasets.append(dataset.encode(dataset.load_dataset(str(path), schema)))
        train_rows = size["rows"] - round(0.2 * size["rows"])
        self.n_masked = round(0.1 * train_rows * len(MIXED_SCHEMA["attributes"]))
        self.reports: dict[int, str] = {}

    def op(self, i: int):
        config = evaluate.ExperimentConfig(
            dataset=self.datasets[i % self.pass_ops],
            methods=evaluate.ALL_METHODS,
            rates=(0.1,),
            trials=1,
            master_seed=self.seed + i,
            holdout_fraction=0.2,
        )
        return evaluate.run_experiment(config)

    def check(self, i: int, report) -> str | None:
        text = report.to_json()
        self.reports[i] = text
        results = json.loads(text)["results"]
        if [r["method"] for r in results] != list(evaluate.ALL_METHODS):
            return "report does not hold one result per method"
        for r in results:
            if r["n_masked"] != self.n_masked:
                return f"{r['method']}: masked {r['n_masked']} cells, expected {self.n_masked}"
            rmse = r["numeric_rmse"]
            if rmse is not None and not (math.isfinite(rmse) and rmse >= 0):
                return f"{r['method']}: numeric_rmse {rmse}"
            for key in ("categorical_accuracy", "downstream_accuracy"):
                if r[key] is not None and not 0 <= r[key] <= 1:
                    return f"{r['method']}: {key} {r[key]}"
        return None

    def verify_repeats(self) -> list[str | None]:
        ops = sorted(self.reports)
        step = max(1, len(ops) // self.REPEATS)
        return [
            None if self.op(i).to_json() == self.reports[i] else f"op {i}: master seed {self.seed + i} did not replay"
            for i in ops[::step][: self.REPEATS]
        ]

    def digest(self) -> str:
        return digest(self.reports[0].encode()) if 0 in self.reports else "none"


def make(name: str, workdir: Path, seed: int, size: dict) -> Workload:
    if name == "impute-mcar-4k":
        return ImputeWorkload(workdir, seed, size)
    if name == "classify-stream-2k":
        return ClassifyWorkload(workdir, seed, size)
    if name == "evaluate-small":
        return EvaluateWorkload(workdir, seed, size)
    raise ValueError(f"unknown workload {name!r}")
