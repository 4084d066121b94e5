"""Degenerate-input fuzzing: run configs of any JSON shape, thin
clustering grids, constant columns and magnitudes up to the parse
bound.  Each must give a documented exit code, a typed error or a
finite result, never an internal error or a NaN."""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cmimpute.casestudy import CLASSIFICATION_PARTITION, IMPUTATION_PARTITION, fixture_text
from cmimpute.classify import classify_mapped, classify_raw_knn
from cmimpute.cli import EXIT_INTERNAL, main
from cmimpute.dataset import MAX_MAGNITUDE, NUMERIC, AttributeSpec, Record, Schema, encode, parse_dataset
from cmimpute.errors import InsufficientDataError
from cmimpute.evaluate import ALL_METHODS
from cmimpute.impute import MODES, ImputeConfig, impute_dataset
from cmimpute.kmeans import FarthestFirst, SeededRandom, cluster

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

# Short strings over an alphabet that spells ".", "..", "" and a NUL
# byte: paths that are directories, missing, or not paths at all.
short_text = st.text(alphabet="ab.\0", max_size=3)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | short_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(short_text, inner, max_size=3),
    max_leaves=6,
)
paths = st.sampled_from(FIXTURES + tuple(QUERY_FILES) + ("out.csv", ".", "no/such/dir.csv"))
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
# with a huge record or trial count is a long run, not an error.
small_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats(allow_nan=False) | short_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(short_text, inner, max_size=3),
    max_leaves=6,
)
SPEC_FIELDS = {
    "synthetic": st.fixed_dictionaries(
        {},
        optional={
            "records": st.one_of(st.integers(0, 40), small_json),
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
    holding the bundled fixtures and the complete query files."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        for name in FIXTURES:
            with open(os.path.join(scratch, name), "w", encoding="utf-8") as fh:
                fh.write(fixture_text(name))
        for name, text in QUERY_FILES.items():
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
    dataset = encode(parse_dataset(text, SCHEMA))

    mode = data.draw(st.sampled_from(MODES))
    result = impute_dataset(dataset, ImputeConfig(mode=mode, seed=data.draw(st.integers(0, 99))))
    assert all(math.isfinite(f.value) for f in result.fills)
    train = result.dataset
    assert train.is_complete

    model = cluster(train.records, 2, FarthestFirst(0))
    query = Record("Q1", (data.draw(bounded), constant, data.draw(bounded)))
    for outcome in (classify_mapped(query, train, model, mode), classify_raw_knn(query, train)):
        assert outcome.labels
        assert all(math.isfinite(v) for v in outcome.table.values())
