"""Missingness injection, imputation scoring, and the trial harness
comparing the cluster-mapping imputer against simple baselines."""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .classify import classify_mapped_all
from .dataset import (
    CATEGORICAL,
    NUMERIC,
    AttributeSpec,
    Cell,
    Dataset,
    Schema,
    encode,
    load_dataset,
    load_schema,
)
from .errors import (
    ConfigError,
    NoDonorsError,
    config_integer,
    config_number,
    config_path,
    config_seed,
)
from .impute import MODE_ABSOLUTE, MODE_SIGNED, ImputeConfig, _pool_value, impute_dataset, missing_cells
from .kmeans import FarthestFirst, cluster
from .mapping import mean, squared_distances

METHOD_SIGNED = "cluster-map-paper-signed"
METHOD_ABSOLUTE = "cluster-map-absolute"
METHOD_CLASS_STATS = "per-class-mean-mode"
METHOD_KNN_DONOR = "raw-knn-donor"

ALL_METHODS = (METHOD_SIGNED, METHOD_ABSOLUTE, METHOD_CLASS_STATS, METHOD_KNN_DONOR)


@dataclass(frozen=True)
class MaskedCell:
    record_id: str
    attr_index: int
    true_value: Cell


@dataclass(frozen=True)
class MaskPlan:
    """Ground truth for every masked cell, in record order."""

    cells: tuple[MaskedCell, ...]


def inject_mcar(dataset: Dataset, rate: float, seed: int) -> tuple[Dataset, MaskPlan]:
    """Mask round(rate * m * n) uniformly chosen cells, never leaving a
    record with every cell missing.  Labels are not cells and are
    never masked."""
    if not dataset.is_complete:
        raise ValueError("can only inject missingness into a complete dataset")
    if not 0 < rate < 1:
        raise ConfigError(f"rate must be in (0, 1), got {rate}")
    m, n = len(dataset), dataset.schema.arity
    count = round(rate * m * n)
    if count > m * (n - 1):
        raise ConfigError(
            f"rate {rate} would mask {count} cells but only {m * (n - 1)} can be "
            "masked without emptying a record"
        )
    if count == 0:
        return dataset, MaskPlan(())

    rng = np.random.default_rng(seed)
    order = rng.permutation(m * n)
    per_record = Counter()
    chosen: list[tuple[int, int]] = []
    for flat in order:
        if len(chosen) == count:
            break
        row, col = divmod(int(flat), n)
        if per_record[row] == n - 1:  # keep at least one observed cell
            continue
        per_record[row] += 1
        chosen.append((row, col))
    chosen.sort()
    return _apply_mask(dataset, chosen)


def mask_cells(dataset: Dataset, cells: Iterable[tuple[str, int]]) -> tuple[Dataset, MaskPlan]:
    """Mask an explicit list of (record id, attribute index) cells."""
    if not dataset.is_complete:
        raise ValueError("can only inject missingness into a complete dataset")
    index = {rid: i for i, rid in enumerate(dataset.ids)}
    n = dataset.schema.arity
    chosen: list[tuple[int, int]] = []
    for rid, attr in cells:
        if rid not in index:
            raise ConfigError(f"unknown record id {rid!r}")
        if not 0 <= attr < n:
            raise ConfigError(f"attribute index {attr} out of range for record {rid}")
        pair = (index[rid], attr)
        if pair in chosen:
            raise ConfigError(f"cell ({rid}, {attr}) listed twice")
        chosen.append(pair)
    per_record = Counter(row for row, _ in chosen)
    for row, masked in per_record.items():
        if masked >= n:
            raise ConfigError(f"record {dataset.ids[row]} would lose every cell")
    chosen.sort()
    return _apply_mask(dataset, chosen)


def _apply_mask(dataset: Dataset, chosen: list[tuple[int, int]]) -> tuple[Dataset, MaskPlan]:
    # chosen is sorted by (row, col), so the plan lists cells in
    # record order and the result is independent of selection order.
    X = dataset.matrix.copy()
    cells = []
    for row, col in chosen:
        cells.append(MaskedCell(dataset.ids[row], col, X[row, col].item()))
        X[row, col] = math.nan
    return Dataset(dataset.schema, dataset.ids, dataset.labels, X.T), MaskPlan(tuple(cells))


@dataclass(frozen=True)
class ImputationScore:
    """RMSE over numeric masked cells and exact-match accuracy over
    categorical ones; None where no cell of that kind was masked."""

    numeric_rmse: float | None
    categorical_accuracy: float | None
    n_numeric: int
    n_categorical: int


def score_imputation(plan: MaskPlan, completed: Dataset) -> ImputationScore:
    numeric_sq: list[float] = []
    categorical_hits: list[bool] = []
    rows = [completed._by_id[cell.record_id] for cell in plan.cells]
    values = completed.matrix[rows, [cell.attr_index for cell in plan.cells]].tolist()
    for cell, value in zip(plan.cells, values):
        if math.isnan(value):
            raise ValueError(f"masked cell ({cell.record_id}, {cell.attr_index}) was not filled")
        spec = completed.schema.attributes[cell.attr_index]
        if spec.kind == NUMERIC:
            numeric_sq.append((value - float(cell.true_value)) ** 2)
        else:
            categorical_hits.append(value == cell.true_value)
    return ImputationScore(
        numeric_rmse=math.sqrt(mean(numeric_sq)) if numeric_sq else None,
        categorical_accuracy=(
            sum(categorical_hits) / len(categorical_hits) if categorical_hits else None
        ),
        n_numeric=len(numeric_sq),
        n_categorical=len(categorical_hits),
    )


def baseline_class_stats(dataset: Dataset) -> Dataset:
    """Fill each missing cell with the mean (numeric) or mode
    (categorical, ties to the smallest value) over the complete
    records of the query's class, falling back to all complete records
    when the class pool is empty or the query is unlabeled."""
    missing = missing_cells(dataset, "no complete records to aggregate")
    if missing is None:
        return dataset
    X, labels = dataset.matrix, dataset.labels
    complete = np.flatnonzero(~missing.any(axis=1)).tolist()
    pools: dict[str | None, list[int]] = {}
    for i in complete:
        pools.setdefault(labels[i], []).append(i)
    filled = X.copy()
    for row, attr in zip(*(a.tolist() for a in np.nonzero(missing))):
        pool = (labels[row] is not None and pools.get(labels[row])) or complete
        filled[row, attr] = _pool_value(X[pool, attr].tolist(), dataset.schema.attributes[attr])[0]
    return Dataset(dataset.schema, dataset.ids, labels, filled.T)


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
    # The query's NaN cells drop out of every distance, and argmin
    # keeps the earliest of tied donors.  Queries go in blocks of at
    # most 2**20 kernel terms, which bounds the kernel's temporaries.
    G = X[complete]
    block = max(1, 2**20 // G.size)
    donors = complete[
        np.concatenate([squared_distances(G, X[rows[i : i + block]]).argmin(axis=0) for i in range(0, len(rows), block)])
    ]
    filled = X.copy()
    filled[rows] = np.where(missing[rows], X[donors], X[rows])
    return Dataset(dataset.schema, dataset.ids, dataset.labels, filled.T)


@dataclass(frozen=True)
class ExperimentConfig:
    """A masking benchmark: either random rates over trials, or one
    explicit plan of cells to mask (plan runs skip the holdout so the
    planned records are guaranteed to be present)."""

    dataset: Dataset
    methods: tuple[str, ...] = ALL_METHODS
    rates: tuple[float, ...] = (0.1,)
    trials: int = 1
    master_seed: int = 0
    holdout_fraction: float = 0.2
    plan: tuple[tuple[str, int], ...] | None = None

    def __post_init__(self) -> None:
        unknown = [m for m in self.methods if m not in ALL_METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; choose from {list(ALL_METHODS)}")
        if not self.methods:
            raise ConfigError("at least one method is required")
        for rate in self.rates:
            if not 0 < rate < 1:
                raise ConfigError(f"rates must lie in (0, 1), got {rate}")
        if self.trials < 0:
            raise ConfigError(f"trials must be non-negative, got {self.trials}")
        if not 0 <= self.holdout_fraction < 1:
            raise ConfigError(f"holdout_fraction must be in [0, 1), got {self.holdout_fraction}")
        if self.plan is not None and not self.plan:
            raise ConfigError("an explicit plan must name at least one cell")


@dataclass(frozen=True)
class TrialResult:
    method: str
    rate: float | None
    trial: int
    mask_seed: int | None
    n_masked: int
    numeric_rmse: float | None
    categorical_accuracy: float | None
    downstream_accuracy: float | None


@dataclass(frozen=True)
class EvaluationReport:
    methods: tuple[str, ...]
    rates: tuple[float, ...]
    trials: int
    master_seed: int
    holdout_fraction: float
    results: tuple[TrialResult, ...]

    def aggregates(self) -> dict[str, dict[str, float | None]]:
        """Per-method means over the trials where each metric is defined."""
        out: dict[str, dict[str, float | None]] = {}
        for method in self.methods:
            rows = [r for r in self.results if r.method == method]
            out[method] = {
                "numeric_rmse": _mean_or_none([r.numeric_rmse for r in rows]),
                "categorical_accuracy": _mean_or_none([r.categorical_accuracy for r in rows]),
                "downstream_accuracy": _mean_or_none([r.downstream_accuracy for r in rows]),
                "trials": len(rows),
            }
        return out

    def to_dict(self) -> dict:
        return {
            "methods": list(self.methods),
            "rates": list(self.rates),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "holdout_fraction": self.holdout_fraction,
            "results": [
                {
                    "method": r.method,
                    "rate": r.rate,
                    "trial": r.trial,
                    "mask_seed": r.mask_seed,
                    "n_masked": r.n_masked,
                    "numeric_rmse": r.numeric_rmse,
                    "categorical_accuracy": r.categorical_accuracy,
                    "downstream_accuracy": r.downstream_accuracy,
                }
                for r in self.results
            ],
            "aggregates": self.aggregates(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def summary_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "method",
                "rate",
                "trial",
                "mask_seed",
                "n_masked",
                "numeric_rmse",
                "categorical_accuracy",
                "downstream_accuracy",
            ]
        )
        for r in self.results:
            writer.writerow(
                [
                    r.method,
                    r.rate,
                    r.trial,
                    r.mask_seed,
                    r.n_masked,
                    "" if r.numeric_rmse is None else repr(r.numeric_rmse),
                    "" if r.categorical_accuracy is None else repr(r.categorical_accuracy),
                    "" if r.downstream_accuracy is None else repr(r.downstream_accuracy),
                ]
            )
        return buf.getvalue()


def _mean_or_none(values: Sequence[float | None]) -> float | None:
    defined = [v for v in values if v is not None]
    return mean(defined) if defined else None


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
    bit-reproducible.
    """
    dataset = config.dataset
    if not dataset.is_encoded:
        raise ConfigError("experiment dataset must be encoded")
    if not dataset.is_complete:
        raise ConfigError("experiment dataset must be complete (it is the ground truth)")
    if dataset.n_classes == 0:
        raise ConfigError("experiment dataset must be labeled")

    results: list[TrialResult] = []

    def score_methods(
        masked: Dataset,
        plan: MaskPlan,
        holdout: Dataset | None,
        rate: float | None,
        rate_idx: int,
        trial: int,
        mask_seed: int | None,
    ) -> None:
        for method_idx, method in enumerate(config.methods):
            completed = _run_method(
                method,
                masked,
                derive_seed(config.master_seed, _STAGE_METHOD, rate_idx, trial, method_idx),
            )
            score = score_imputation(plan, completed)
            downstream = _downstream_accuracy(
                completed,
                holdout,
                derive_seed(config.master_seed, _STAGE_DOWNSTREAM, rate_idx, trial, method_idx),
            )
            results.append(
                TrialResult(
                    method=method,
                    rate=rate,
                    trial=trial,
                    mask_seed=mask_seed,
                    n_masked=len(plan.cells),
                    numeric_rmse=score.numeric_rmse,
                    categorical_accuracy=score.categorical_accuracy,
                    downstream_accuracy=downstream,
                )
            )

    if config.plan is not None:
        # One deterministic pass over the named cells, with no holdout
        # so every planned record is guaranteed to be present.
        masked, plan = mask_cells(dataset, config.plan)
        score_methods(masked, plan, None, rate=None, rate_idx=0, trial=0, mask_seed=None)
    else:
        for rate_idx, rate in enumerate(config.rates):
            for trial in range(config.trials):
                train, holdout = _split_holdout(
                    dataset,
                    config.holdout_fraction,
                    derive_seed(config.master_seed, _STAGE_HOLDOUT, rate_idx, trial),
                )
                mask_seed = derive_seed(config.master_seed, _STAGE_MASK, rate_idx, trial)
                masked, plan = inject_mcar(train, rate, mask_seed)
                score_methods(masked, plan, holdout, rate, rate_idx, trial, mask_seed)
    return EvaluationReport(
        methods=config.methods,
        rates=config.rates,
        trials=config.trials,
        master_seed=config.master_seed,
        holdout_fraction=config.holdout_fraction,
        results=tuple(results),
    )


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


def _run_method(method: str, masked: Dataset, seed: int) -> Dataset:
    if method == METHOD_SIGNED:
        return impute_dataset(masked, ImputeConfig(mode=MODE_SIGNED, seed=seed)).dataset
    if method == METHOD_ABSOLUTE:
        return impute_dataset(masked, ImputeConfig(mode=MODE_ABSOLUTE, seed=seed)).dataset
    if method == METHOD_CLASS_STATS:
        return baseline_class_stats(masked)
    if method == METHOD_KNN_DONOR:
        return baseline_knn_donor(masked)
    raise ConfigError(f"unknown method {method!r}")


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
    """Labeled, complete, encoded benchmark dataset with three classes
    clustered along one latent axis.

    Each class is bimodal: it unions two distant latent segments, so
    per-class statistics straddle the modes while geometric donors stay
    local.  A six-value categorical names the segment and dominates the
    encoded geometry (the six numerics are normalized to unit scale and
    follow the latent value with small noise), which keeps the mapping
    scalar informative even when a numeric cell is missing.
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
    ids = [f"R{i + 1}" for i in range(len(rows))]
    return Dataset(schema, ids, labels, np.array(rows, dtype=float).T)


def load_experiment_config(path: str) -> ExperimentConfig:
    """Read an experiment spec from JSON.

    The dataset comes either from "dataset" and "schema" paths
    (resolved relative to the config file) or from a "synthetic"
    object with optional "records" and "seed".
    """
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path}: experiment spec must be a JSON object")

    if "synthetic" in raw:
        synth = raw["synthetic"] or {}
        if not isinstance(synth, Mapping):
            raise ConfigError("'synthetic' must be an object")
        dataset = make_synthetic_dataset(
            n_records=config_integer(synth.get("records", 60), "synthetic.records"),
            seed=config_seed(synth.get("seed", 7), "synthetic.seed"),
        )
    elif "dataset" in raw and "schema" in raw:
        base = os.path.dirname(os.path.abspath(path))
        data_path = os.path.join(base, config_path(raw["dataset"], "dataset"))
        schema = load_schema(os.path.join(base, config_path(raw["schema"], "schema")))
        dataset = encode(load_dataset(data_path, schema))
    else:
        raise ConfigError("experiment spec needs either 'synthetic' or 'dataset' + 'schema'")

    methods = raw.get("methods", list(ALL_METHODS))
    if not isinstance(methods, list):
        raise ConfigError("'methods' must be a list")
    rates = raw.get("rates", [0.1])
    if not isinstance(rates, list):
        raise ConfigError("'rates' must be a list")
    plan = None
    if "plan" in raw:
        if not isinstance(raw["plan"], list) or not all(
            isinstance(c, list) and len(c) == 2 for c in raw["plan"]
        ):
            raise ConfigError("'plan' must be a list of [record_id, attr_index] pairs")
        plan = tuple(
            (str(rid), config_integer(idx, "plan attribute index")) for rid, idx in raw["plan"]
        )
    return ExperimentConfig(
        dataset=dataset,
        methods=tuple(str(m) for m in methods),
        rates=tuple(config_number(r, "rate") for r in rates),
        trials=config_integer(raw.get("trials", 1), "trials"),
        master_seed=config_seed(raw.get("master_seed", 0), "master_seed"),
        holdout_fraction=config_number(raw.get("holdout_fraction", 0.2), "holdout_fraction"),
        plan=plan,
    )
