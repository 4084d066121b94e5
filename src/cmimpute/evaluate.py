"""Missingness injection, imputation scoring, and the trial harness
comparing the cluster-mapping imputer against simple baselines."""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from functools import cache
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .classify import classify_mapped_all
from .dataset import (
    CATEGORICAL,
    NUMERIC,
    AttributeSpec,
    Dataset,
    Schema,
    csv_text,
    load_dataset,
    load_schema,
    split_groups,
)
from .errors import (
    CannotClassifyError,
    ConfigError,
    InsufficientDataError,
    NoDonorsError,
    SchemaError,
    config_integer,
    config_number,
    config_path,
    config_seed,
    read_json,
)
from .impute import MODE_ABSOLUTE, MODE_SIGNED, ImputeConfig, impute_dataset, missing_cells
from .impute import _class_pools, _class_value, _pool_value  # the tie fill's class statistic
from .kmeans import FarthestFirst, cluster
from .mapping import mean, nearest_rows

METHOD_SIGNED = "cluster-map-paper-signed"
METHOD_ABSOLUTE = "cluster-map-absolute"
METHOD_CLASS_STATS = "per-class-mean-mode"
METHOD_KNN_DONOR = "raw-knn-donor"


def _cluster_map(mode: str):
    return lambda masked, seed: impute_dataset(masked, ImputeConfig(mode, init=FarthestFirst(seed))).dataset


# Each method as a callable (masked dataset, seed) -> completed dataset.
# Names resolve at call time, so a rebound module function sees every call.
_METHODS = {
    METHOD_SIGNED: _cluster_map(MODE_SIGNED),
    METHOD_ABSOLUTE: _cluster_map(MODE_ABSOLUTE),
    METHOD_CLASS_STATS: lambda masked, seed: baseline_class_stats(masked),
    METHOD_KNN_DONOR: lambda masked, seed: baseline_knn_donor(masked),
}
ALL_METHODS = tuple(_METHODS)

_PLAN_SHAPE = "'plan' must be a list of [record_id, attr_index] pairs"


class MaskPlan:
    """Ground truth for every masked cell, as arrays aligned with the
    masked dataset (ids is its id tuple): cell i sits at row rows[i] and
    attribute attrs[i] and held values[i], a read-only array.  Cells
    are in row-major order.  Never mutated."""

    def __init__(self, ids: tuple[str, ...], rows: np.ndarray, attrs: np.ndarray, values: np.ndarray) -> None:
        self.ids, self.rows, self.attrs, self.values = ids, rows, attrs, values

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaskPlan):
            return NotImplemented
        arrays = ("rows", "attrs", "values")
        return self.ids == other.ids and all(np.array_equal(getattr(self, a), getattr(other, a)) for a in arrays)


def inject_mcar(dataset: Dataset, rate: float, seed: int) -> tuple[Dataset, MaskPlan]:
    """Mask round(rate * m * n) uniformly chosen cells, never leaving a
    record with every cell missing.  Labels are not cells and are
    never masked."""
    rate, seed = config_number(rate, "rate"), config_seed(seed, "seed")
    if not 0 < rate < 1:
        raise ConfigError(f"rate must be in (0, 1), got {rate}")
    m, n = len(dataset), dataset.schema.arity
    count = round(rate * m * n)
    if count > m * (n - 1):
        raise ConfigError(
            f"rate {rate} would mask {count} cells but only {m * (n - 1)} can be "
            "masked without emptying a record"
        )
    order = np.random.default_rng(seed).permutation(m * n)
    # Each cell's rank among its record's cells in permutation order:
    # the stable sort groups the n cells of a record in that order.
    rank = np.empty(m * n, dtype=np.intp)
    rank[np.argsort(order // n, kind="stable")] = np.arange(m * n) % n
    # The first count cells, in permutation order, that leave their
    # record at least one observed cell.
    chosen = np.sort(order[np.flatnonzero(rank < n - 1)[:count]])
    return _apply_mask(dataset, chosen // n, chosen % n)


def mask_cells(dataset: Dataset, cells: Iterable[tuple[str, int]]) -> tuple[Dataset, MaskPlan]:
    """Mask an explicit list of (record id, attribute index) pairs, each a
    list or tuple: a string id of the dataset and a Python or NumPy int."""
    index = dataset._by_id
    n = dataset.schema.arity
    chosen: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for cell in cells if isinstance(cells, Iterable) else [None]:
        if not isinstance(cell, (list, tuple)) or len(cell) != 2:
            raise ConfigError(_PLAN_SHAPE)
        rid, attr = cell
        if not isinstance(rid, str) or rid not in index:
            raise ConfigError(f"unknown record id {rid!r}")
        attr = config_integer(attr.item() if isinstance(attr, np.integer) else attr, "plan attribute index")
        if not 0 <= attr < n:
            raise ConfigError(f"attribute index {attr} out of range for record {rid}")
        pair = (index[rid], attr)
        if pair in seen:
            raise ConfigError(f"cell ({rid}, {attr}) listed twice")
        seen.add(pair)
        chosen.append(pair)
    per_record = Counter(row for row, _ in chosen)
    for row, masked in per_record.items():
        if masked >= n:
            raise ConfigError(f"record {dataset.ids[row]} would lose every cell")
    chosen.sort()
    return _apply_mask(dataset, *np.array(chosen, dtype=np.intp).reshape(-1, 2).T)


def _apply_mask(dataset: Dataset, rows: np.ndarray, attrs: np.ndarray) -> tuple[Dataset, MaskPlan]:
    if not dataset.is_complete:
        raise ConfigError("can only inject missingness into a complete dataset")
    # The cells are sorted by (row, attr), so the plan lists them in
    # row-major order and the result is independent of selection order.
    values = dataset.matrix[rows, attrs]
    values.flags.writeable = False
    X = dataset.matrix.copy()
    X[rows, attrs] = math.nan
    return Dataset(dataset.schema, dataset.ids, dataset.labels, X), MaskPlan(dataset.ids, rows, attrs, values)


class ImputationScore(NamedTuple):
    """RMSE over numeric masked cells and exact-match accuracy over
    categorical ones; None where no cell of that kind was masked."""

    numeric_rmse: float | None
    categorical_accuracy: float | None


def score_imputation(plan: MaskPlan, completed: Dataset) -> ImputationScore:
    """Score completed's values at the plan's cells against the true
    values.  completed must hold the masked dataset's records in its
    order, so its ids must equal plan.ids; a SchemaError says otherwise,
    or names the first masked cell left missing."""
    if completed.ids != plan.ids:
        raise SchemaError("the completed dataset does not hold the masked dataset's records in order")
    filled = completed.matrix[plan.rows, plan.attrs]
    unfilled = np.isnan(filled)
    if unfilled.any():
        i = int(unfilled.argmax())
        raise SchemaError(f"masked cell ({plan.ids[plan.rows[i]]}, {plan.attrs[i]}) was not filled")
    numeric = np.array([spec.kind == NUMERIC for spec in completed.schema.attributes], dtype=bool)[plan.attrs]
    squared = np.float_power(filled[numeric] - plan.values[numeric], 2.0).tolist()
    hits = (filled == plan.values)[~numeric]
    return ImputationScore(
        numeric_rmse=math.sqrt(mean(squared)) if squared else None,
        categorical_accuracy=int(hits.sum()) / len(hits) if len(hits) else None,
    )


def baseline_class_stats(dataset: Dataset) -> Dataset:
    """Fill each missing cell with the mean (numeric) or mode
    (categorical, ties to the smallest value) over the complete
    records of the query's class, falling back to all complete records
    when the class pool is empty or the query is unlabeled.  Each class
    statistic is the tie fill's (_class_value), and each fallback is
    computed once per attribute."""
    missing = missing_cells(dataset, "no complete records to aggregate")
    if missing is None:
        return dataset
    g1, specs = split_groups(dataset).g1, dataset.schema.attributes
    classes = _class_pools(g1).keys() - {None}
    overall = cache(lambda attr: _pool_value(g1.matrix[:, attr].tolist(), specs[attr]))
    filled = dataset.matrix.copy()
    for row, attr in zip(*(a.tolist() for a in np.nonzero(missing))):
        klass = dataset.labels[row]
        filled[row, attr] = (_class_value(g1, klass, attr, specs[attr]) if klass in classes else overall(attr))[0]
    return Dataset(dataset.schema, dataset.ids, dataset.labels, filled)


def baseline_knn_donor(dataset: Dataset) -> Dataset:
    """Fill each incomplete record from its nearest complete record,
    measured by Euclidean distance over the observed coordinates (ties
    to the earliest complete record)."""
    missing = missing_cells(dataset, "no complete records to donate")
    if missing is None:
        return dataset
    X, incomplete = dataset.matrix, missing.any(axis=1)
    empty = missing.all(axis=1)
    if empty.any():
        raise NoDonorsError(f"record {dataset.ids[int(empty.argmax())]} has no observed values")
    complete, rows = np.flatnonzero(~incomplete), np.flatnonzero(incomplete)
    # The query's NaN cells drop out of every distance, and nearest_rows
    # keeps every row at its minimum, ascending, so argmin takes the
    # earliest tied donor.  Blocks of 2**20 screen terms bound temporaries.
    G = np.asfortranarray(X[complete])
    block = max(1, 2**20 // G.size)
    searches = (nearest_rows(G, X[rows[i : i + block]]) for i in range(0, len(rows), block))
    donors = complete[np.concatenate([near[exact.argmin(axis=0)] for near, exact in searches])]
    filled = X.copy()
    filled[rows] = np.where(missing[rows], X[donors], X[rows])
    return Dataset(dataset.schema, dataset.ids, dataset.labels, filled)


class ExperimentConfig:
    """A masking benchmark: either random rates over trials, or one
    explicit plan of cells to mask (plan runs skip the holdout so the
    planned records are guaranteed to be present).  Each option's
    default is declared here, and each option is checked here, but a
    plan's cells are checked by mask_cells.  Never mutated."""

    def __init__(
        self,
        dataset: Dataset,
        methods: tuple[str, ...] = ALL_METHODS,
        rates: tuple[float, ...] = (0.1,),
        trials: int = 1,
        master_seed: int = 0,
        holdout_fraction: float = 0.2,
        plan: tuple[tuple[str, int], ...] | None = None,
    ) -> None:
        if not isinstance(methods, (list, tuple)):
            raise ConfigError("'methods' must be a list")
        if not isinstance(rates, (list, tuple)):
            raise ConfigError("'rates' must be a list")
        if plan is not None and not (
            isinstance(plan, (list, tuple)) and all(isinstance(c, (list, tuple)) and len(c) == 2 for c in plan)
        ):
            raise ConfigError(_PLAN_SHAPE)
        self.dataset, self.methods = dataset, tuple(methods)
        self.plan = None if plan is None else tuple(map(tuple, plan))
        self.rates = tuple(config_number(rate, "rate") for rate in rates)
        self.trials, self.master_seed = config_integer(trials, "trials"), config_seed(master_seed, "master_seed")
        self.holdout_fraction = config_number(holdout_fraction, "holdout_fraction")
        unknown = [m for m in methods if m not in ALL_METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; choose from {list(ALL_METHODS)}")
        if not methods:
            raise ConfigError("at least one method is required")
        repeated = [m for m, n in Counter(methods).items() if n > 1]
        if repeated:
            raise ConfigError(f"method {repeated[0]!r} listed twice")
        for rate in self.rates:
            if not 0 < rate < 1:
                raise ConfigError(f"rates must lie in (0, 1), got {rate}")
        if trials < 0:
            raise ConfigError(f"trials must be non-negative, got {trials}")
        if not 0 <= self.holdout_fraction < 1:
            raise ConfigError(f"holdout_fraction must be in [0, 1), got {self.holdout_fraction}")
        if plan is not None and not plan:
            raise ConfigError("an explicit plan must name at least one cell")
        if not dataset.is_complete:
            raise ConfigError("experiment dataset must be complete (it is the ground truth)")
        if dataset.n_classes == 0:
            raise ConfigError("experiment dataset must be labeled")


class TrialResult(NamedTuple):
    method: str
    rate: float | None
    trial: int
    mask_seed: int | None
    n_masked: int
    numeric_rmse: float | None
    categorical_accuracy: float | None
    downstream_accuracy: float | None


# The TrialResult fields that aggregates() averages.
_METRICS = ("numeric_rmse", "categorical_accuracy", "downstream_accuracy")


class EvaluationReport(NamedTuple):
    methods: tuple[str, ...]
    rates: tuple[float, ...]
    trials: int
    master_seed: int
    holdout_fraction: float
    results: tuple[TrialResult, ...]

    def aggregates(self) -> dict[str, dict[str, float | None]]:
        """Per method, the trial count and each metric's mean over the
        trials where it is defined."""
        out: dict[str, dict[str, float | None]] = {}
        for method in self.methods:
            rows = [r for r in self.results if r.method == method]
            out[method] = {"trials": len(rows)}
            for metric in _METRICS:
                defined = [v for r in rows if (v := getattr(r, metric)) is not None]
                out[method][metric] = mean(defined) if defined else None
        return out

    def to_json(self) -> str:
        report = self._asdict() | {"results": tuple(r._asdict() for r in self.results), "aggregates": self.aggregates()}
        return json.dumps(report, sort_keys=True, indent=2)

    def summary_csv(self) -> str:
        """One row per result, a column per TrialResult field; an
        undefined metric is an empty field."""
        rows = [["" if v is None else str(v) for v in r] for r in self.results]
        return csv_text(list(TrialResult._fields), list(zip(*rows)))


def derive_seed(master_seed: int, *path: int) -> int:
    """Stable per-stage seed derivation (PCG64 seed sequences), so any
    trial can be replayed in isolation."""
    return int(np.random.SeedSequence([master_seed, *path]).generate_state(1)[0])


# Stage tags for derive_seed paths.
_STAGE_MASK = 0
_STAGE_HOLDOUT = 1
_STAGE_METHOD = 2
_STAGE_DOWNSTREAM = 3


def run_experiment(config: ExperimentConfig) -> EvaluationReport:
    """Mask, impute, and score per (rate, trial, method).

    Every method sees the identical masked dataset within a trial.
    All randomness derives from the master seed, so reports are
    bit-reproducible.  A method that runs out of data raises its error
    again with the trial and method in front of the message.
    """
    results: list[TrialResult] = []
    for masked, plan, holdout, rate, rate_idx, trial, mask_seed in _trials(config):
        for method_idx, method in enumerate(config.methods):
            path = (rate_idx, trial, method_idx)
            try:
                completed = _METHODS[method](masked, derive_seed(config.master_seed, _STAGE_METHOD, *path))
                score = score_imputation(plan, completed)
                downstream_seed = derive_seed(config.master_seed, _STAGE_DOWNSTREAM, *path)
                downstream = _downstream_accuracy(completed, holdout, downstream_seed)
            except (ConfigError, InsufficientDataError, CannotClassifyError) as exc:
                where = "plan" if rate is None else f"rate {rate}, trial {trial}"
                raise type(exc)(f"{where}, {method}: {exc}") from exc
            results.append(TrialResult(method, rate, trial, mask_seed, len(plan), *score, downstream))
    return EvaluationReport(
        methods=config.methods,
        rates=config.rates,
        trials=config.trials,
        master_seed=config.master_seed,
        holdout_fraction=config.holdout_fraction,
        results=tuple(results),
    )


def _trials(config: ExperimentConfig) -> Iterator[tuple]:
    """Each trial as (masked, plan, holdout, rate, rate_idx, trial,
    mask_seed), made when the caller asks for it."""
    if config.plan is not None:
        # One deterministic pass over the named cells, with no holdout
        # so every planned record is guaranteed to be present.
        yield *mask_cells(config.dataset, config.plan), None, None, 0, 0, None
        return
    for rate_idx, rate in enumerate(config.rates):
        for trial in range(config.trials):
            train, holdout = _split_holdout(
                config.dataset,
                config.holdout_fraction,
                derive_seed(config.master_seed, _STAGE_HOLDOUT, rate_idx, trial),
            )
            mask_seed = derive_seed(config.master_seed, _STAGE_MASK, rate_idx, trial)
            yield *inject_mcar(train, rate, mask_seed), holdout, rate, rate_idx, trial, mask_seed


def _split_holdout(dataset: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset | None]:
    m = len(dataset)
    h = round(fraction * m)
    if h == 0:
        return dataset, None
    if m - h < 2:
        raise ConfigError(f"holdout of {h} records leaves too little training data")
    rng = np.random.default_rng(seed)
    held = np.zeros(m, dtype=bool)
    held[rng.choice(m, size=h, replace=False)] = True
    return dataset.take(np.flatnonzero(~held)), dataset.take(np.flatnonzero(held))


def _downstream_accuracy(completed: Dataset, holdout: Dataset | None, seed: int) -> float | None:
    """Accuracy of the mapped classifier, trained on the completed
    records, over the held-out complete records.  A prediction counts
    when the true label is among the returned labels."""
    if holdout is None:
        return None
    model = cluster(completed, completed.n_classes, FarthestFirst(seed))
    results = classify_mapped_all(holdout, completed, model, MODE_ABSOLUTE)
    return sum(label in result.labels for label, result in zip(holdout.labels, results)) / len(holdout)


# Latent layout of the synthetic benchmark: six segments along one
# latent axis, paired into three classes so every class is bimodal.
_SEGMENT_CENTERS = (0.0, 14.0, 30.0, 48.0, 68.0, 90.0)
_SEGMENT_WEIGHTS = (14, 13, 12, 8, 8, 5)
_SEGMENT_CLASS = ("C1", "C2", "C3", "C1", "C2", "C3")
_SEGMENT_SYMBOLS = tuple(f"b{i + 1}" for i in range(6))
_SEGMENT_WIDTH = 1.0
_SLOPES = (0.5, 0.42, 0.58, 0.35, 0.62, 0.45)
_INTERCEPTS = (0.0, 0.1, -0.05, 0.2, 0.05, -0.1)
_NOISE_SCALE = 0.02
_LATENT_SPAN = 90.0


def _segment_counts(n_records: int) -> list[int]:
    """Largest-remainder allocation of records to the six segments."""
    total = sum(_SEGMENT_WEIGHTS)
    exact = [w * n_records / total for w in _SEGMENT_WEIGHTS]
    counts = [int(x) for x in exact]
    remainders = sorted(
        range(len(exact)), key=lambda i: (exact[i] - counts[i], -i), reverse=True
    )
    for i in remainders[: n_records - sum(counts)]:
        counts[i] += 1
    return counts


def make_synthetic_dataset(n_records: int = 60, seed: int = 7) -> Dataset:
    """Labeled, complete benchmark dataset with three classes
    clustered along one latent axis.

    Each class is bimodal: it unions two distant latent segments, so
    per-class statistics straddle the modes while geometric donors stay
    local.  A six-value categorical names the segment and, by its
    ordinals, dominates the geometry (the six numerics are normalized
    to unit scale and follow the latent value with small noise), which
    keeps the mapping scalar informative even when a numeric cell is
    missing.
    """
    if n_records < 12:
        raise ConfigError("need at least 12 records (two per latent segment)")
    rng = np.random.default_rng(seed)
    attrs = [AttributeSpec(f"x{j + 1}", NUMERIC) for j in range(len(_SLOPES))]
    encoding = {sym: i + 1 for i, sym in enumerate(_SEGMENT_SYMBOLS)}
    attrs.append(AttributeSpec("seg", CATEGORICAL, encoding))
    schema = Schema(tuple(attrs), label_column="class")
    rows, labels = [], []
    for segment, count in enumerate(_segment_counts(n_records)):
        for _ in range(count):
            t = _SEGMENT_CENTERS[segment] + rng.uniform(-_SEGMENT_WIDTH, _SEGMENT_WIDTH)
            noise = rng.normal(0.0, _NOISE_SCALE, size=len(_SLOPES))
            rows.append([a * t / _LATENT_SPAN + b + e for a, b, e in zip(_SLOPES, _INTERCEPTS, noise)] + [segment + 1])
            labels.append(_SEGMENT_CLASS[segment])
    return Dataset(schema, [f"R{i + 1}" for i in range(len(rows))], labels, rows)


def read_experiment_spec(path: str) -> tuple[Mapping, tuple[str, ...]]:
    """An experiment spec's JSON object, and the files it reads: its
    "dataset" and "schema" paths resolved relative to the spec, or none
    when it asks for a "synthetic" dataset."""
    raw = read_json(path, ConfigError)
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path}: experiment spec must be a JSON object")
    if "synthetic" in raw or "dataset" not in raw or "schema" not in raw:
        return raw, ()
    base = os.path.dirname(os.path.abspath(path))
    return raw, tuple(os.path.join(base, config_path(raw[key], key)) for key in ("dataset", "schema"))


def experiment_from_spec(raw: Mapping, inputs: tuple[str, ...]) -> ExperimentConfig:
    """The experiment a spec read by read_experiment_spec describes."""
    if "synthetic" in raw:
        synth = {} if raw["synthetic"] is None else raw["synthetic"]
        if not isinstance(synth, Mapping):
            raise ConfigError("'synthetic' must be an object")
        records = config_integer(synth.get("records", 60), "synthetic.records")
        config_number(records, "synthetic.records")  # a count past the float range is out of range
        dataset = make_synthetic_dataset(n_records=records, seed=config_seed(synth.get("seed", 7), "synthetic.seed"))
    elif inputs:
        data_path, schema_path = inputs
        dataset = load_dataset(data_path, load_schema(schema_path))
    else:
        raise ConfigError("experiment spec needs either 'synthetic' or 'dataset' + 'schema'")

    if "plan" in raw and raw["plan"] is None:
        raise ConfigError(_PLAN_SHAPE)  # a null plan is not the library's "no plan"
    options = ("methods", "rates", "trials", "master_seed", "holdout_fraction", "plan")
    return ExperimentConfig(dataset, **{key: raw[key] for key in options if key in raw})
