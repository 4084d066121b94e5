"""Exit codes, file handling, and golden outputs of the four
subcommands, driven through main() with real files."""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import cmimpute.casestudy
import cmimpute.cli
import cmimpute.impute
from cmimpute.casestudy import IMPUTATION_PARTITION, fixture_text, run_case_study
from cmimpute.cli import (
    EXIT_INSUFFICIENT,
    EXIT_INTERNAL,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_UNLABELED,
    EXIT_USAGE,
    OPTIONS,
    SEED_ENV_VAR,
    main,
)
from cmimpute.dataset import NUMERIC, Record, dataset_to_csv, decode_dataset
from cmimpute.evaluate import inject_mcar, make_synthetic_dataset
from cmimpute.kmeans import FarthestFirst

QUERY_HEADER = "P1,P2,P3,P4\n"
NEW_RECORD_ROW = "2,5,2,9\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def impute_files(tmp_path):
    """Input data, schema, and a config pinning the reference
    partition, ready for the impute subcommand."""
    data = write(tmp_path / "data.csv", fixture_text("table03_missing_raw.csv"))
    schema = write(tmp_path / "schema.json", fixture_text("schema_missing.json"))
    config = write(
        tmp_path / "run.json",
        json.dumps(
            {
                "mode": "paper-signed",
                "init": {
                    "policy": "fixed-partition",
                    "groups": [list(g) for g in IMPUTATION_PARTITION],
                },
            }
        ),
    )
    return tmp_path, data, schema, config


@pytest.fixture
def classify_files(tmp_path):
    train = write(tmp_path / "train.csv", fixture_text("table16_classification.csv"))
    schema = write(tmp_path / "schema.json", fixture_text("schema_classification.json"))
    query = write(tmp_path / "query.csv", QUERY_HEADER + NEW_RECORD_ROW)
    config = write(
        tmp_path / "run.json",
        json.dumps(
            {
                "init": {
                    "policy": "fixed-partition",
                    "groups": [
                        ["R1", "R4", "R6", "R9"],
                        ["R2", "R7", "R8", "R3", "R5"],
                    ],
                }
            }
        ),
    )
    return tmp_path, train, schema, query, config


# --- impute ---


def test_impute_recovers_the_reference_table(impute_files):
    tmp_path, data, schema, config = impute_files
    out = tmp_path / "out.csv"
    report = tmp_path / "prov.csv"
    code = main(
        [
            "impute",
            "--data", data,
            "--schema", schema,
            "--config", config,
            "--out", str(out),
            "--report", str(report),
        ]
    )
    assert code == EXIT_OK
    assert out.read_text() == fixture_text("table01_raw.csv")
    lines = report.read_text().strip().splitlines()
    assert lines[1] == "R3,A3,R8,2,d32,paper-signed,single-donor"
    assert lines[2] == "R5,A4,R8,7,,paper-signed,single-donor"


def test_impute_verbose_prints_each_fill_with_its_symbol(impute_files, capsys):
    tmp_path, data, schema, config = impute_files
    out = str(tmp_path / "out.csv")
    argv = ["impute", "--data", data, "--schema", schema, "--config", config, "--out", out, "--verbose"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "R3.A3 <- d32 (donor R8)",
        "R5.A4 <- 7 (donor R8)",
        f"imputed 2 cells, wrote {out}",
    ]


def test_impute_verbose_prints_a_numeric_fill_as_the_output_holds_it(tmp_path, capsys):
    """A fill of 1234567.5 reads the same on stdout as in the output CSV,
    not as :g's 1.23457e+06."""
    data = write(tmp_path / "data.csv", "x1,x2,class\n1,1234567.5,a\n2,1234567.5,a\n50,3,b\n60,3,b\n1,?,a\n")
    attributes = [{"name": name, "kind": "numeric"} for name in ("x1", "x2")]
    schema = write(tmp_path / "schema.json", json.dumps({"attributes": attributes, "label_column": "class"}))
    out = tmp_path / "out.csv"
    assert main(["impute", "--data", data, "--schema", schema, "--out", str(out), "--verbose"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "R5.x2 <- 1234567.5 (donor R2)"
    assert out.read_text().splitlines()[-1] == "1,1234567.5,a"


def test_impute_builds_a_cell_fill_only_for_verbose_output(impute_files, monkeypatch):
    tmp_path, data, schema, config = impute_files
    built = []
    original = cmimpute.impute.CellFill

    def counting(*fields):
        built.append(fields[0])
        return original(*fields)

    monkeypatch.setattr(cmimpute.impute, "CellFill", counting)
    argv = ["impute", "--data", data, "--schema", schema, "--config", config, "--out", str(tmp_path / "out.csv")]
    assert main(argv + ["--report", str(tmp_path / "prov.csv")]) == EXIT_OK
    assert built == []
    assert main(argv + ["--verbose"]) == EXIT_OK
    assert built == ["R3", "R5"]


def test_every_missing_cell_is_filled_through_fill_value(tmp_path, monkeypatch):
    masked, _ = inject_mcar(make_synthetic_dataset(80, seed=4), 0.05, seed=4)
    specs = masked.schema.attributes
    schema = {
        "attributes": [{"name": a.name, "kind": a.kind, "encoding": dict(a.encoding)} for a in specs],
        "label_column": masked.schema.label_column,
    }
    data = write(tmp_path / "data.csv", dataset_to_csv(decode_dataset(masked)))
    schema_path = write(tmp_path / "schema.json", json.dumps(schema))
    out, report = tmp_path / "out.csv", tmp_path / "prov.csv"

    def impute() -> tuple[list[list[str]], list[dict]]:
        argv = ["impute", "--data", data, "--schema", schema_path, "--out", str(out), "--report", str(report)]
        assert main(argv) == EXIT_OK
        return list(csv.reader(out.read_text().splitlines())), list(csv.DictReader(report.read_text().splitlines()))

    table, provenance = impute()
    original = cmimpute.impute._fill_value

    def shifted(query, attr, donors, g1, spec, maps):
        value, policy = original(query, attr, donors, g1, spec, maps)
        return (value + 0.5 if spec.kind == NUMERIC else value), policy

    monkeypatch.setattr(cmimpute.impute, "_fill_value", shifted)
    moved_table, moved_provenance = impute()

    holes = set(zip(*(a.tolist() for a in np.nonzero(np.isnan(masked.matrix)))))
    numeric = {(row, attr) for row, attr in holes if specs[attr].kind == NUMERIC}
    assert numeric and len(numeric) < len(holes)
    for row, (before, after) in enumerate(zip(table[1:], moved_table[1:])):
        for attr, (a, b) in enumerate(zip(before, after)):
            if (row, attr) in numeric:
                assert float(b) == float(a) + 0.5, (row, attr)
            else:
                assert a == b, (row, attr)
    assert len(provenance) == len(moved_provenance) == len(holes)
    for before, after in zip(provenance, moved_provenance):
        if before["symbol"]:
            assert after == before
        else:
            assert float(after["value"]) == float(before["value"]) + 0.5


def test_impute_complete_input_is_identity(tmp_path):
    data = write(tmp_path / "data.csv", fixture_text("table01_raw.csv"))
    schema = write(tmp_path / "schema.json", fixture_text("schema_missing.json"))
    out = tmp_path / "out.csv"
    report = tmp_path / "prov.csv"
    code = main(
        ["impute", "--data", data, "--schema", schema, "--out", str(out), "--report", str(report)]
    )
    assert code == EXIT_OK
    assert out.read_text() == fixture_text("table01_raw.csv")
    assert report.read_text().strip().splitlines() == [
        "query,attribute,donors,value,symbol,mode,tie_policy"
    ]


def test_impute_all_missing_record_exits_3_naming_it(tmp_path, capsys):
    data = write(
        tmp_path / "data.csv",
        "A1,A2,A3,A4,Class\nc11,5,d31,10,CLASS-1\nc13,7,d31,5,CLASS-2\n?,?,?,?,CLASS-1\n",
    )
    schema = write(tmp_path / "schema.json", fixture_text("schema_missing.json"))
    code = main(["impute", "--data", data, "--schema", schema, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_INSUFFICIENT
    assert "R3" in capsys.readouterr().err


def test_impute_missing_data_file_exits_2(tmp_path, capsys):
    schema = write(tmp_path / "schema.json", fixture_text("schema_missing.json"))
    code = main(
        ["impute", "--data", str(tmp_path / "nope.csv"), "--schema", schema, "--out", str(tmp_path / "o.csv")]
    )
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_impute_missing_required_flag_exits_2(capsys):
    assert main(["impute", "--out", "x.csv"]) == EXIT_USAGE
    assert "--data" in capsys.readouterr().err


def test_impute_rejects_overwriting_its_input(impute_files, capsys):
    _, data, schema, _ = impute_files
    code = main(["impute", "--data", data, "--schema", schema, "--out", data])
    assert code == EXIT_USAGE
    assert "overwrite" in capsys.readouterr().err


def test_impute_rejects_one_file_for_both_outputs(impute_files, capsys):
    tmp_path, data, schema, config = impute_files
    out = tmp_path / "o.csv"
    (tmp_path / "sub").mkdir()
    same = str(tmp_path / "sub" / ".." / "o.csv")  # another spelling of out
    code = main(["impute", "--data", data, "--schema", schema, "--config", config, "--out", str(out), "--report", same])
    assert code == EXIT_USAGE
    assert "overwrite another output" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["casestudy", "--out", "CONFIG"],
        ["impute", "--data", "data.csv", "--schema", "missing.json", "--out", "CONFIG"],
        ["impute", "--data", "data.csv", "--schema", "missing.json", "--out", "o.csv", "--report", "CONFIG"],
        ["classify", "--train", "train.csv", "--schema", "classification.json", "--query", "q.csv", "--out", "CONFIG"],
    ],
    ids=["casestudy-out", "impute-out", "impute-report", "classify-out"],
)
def test_commands_refuse_to_overwrite_their_config_file(tmp_path, capsys, argv):
    write(tmp_path / "data.csv", fixture_text("table03_missing_raw.csv"))
    write(tmp_path / "missing.json", fixture_text("schema_missing.json"))
    write(tmp_path / "train.csv", fixture_text("table16_classification.csv"))
    write(tmp_path / "classification.json", fixture_text("schema_classification.json"))
    write(tmp_path / "q.csv", QUERY_HEADER + NEW_RECORD_ROW)
    text = json.dumps({"seed": 3} if argv[0] != "casestudy" else {"tolerance": 1e-5})
    config = write(tmp_path / "run.json", text)
    argv = [config if a == "CONFIG" else str(tmp_path / a) if "." in a else a for a in argv]
    assert main([*argv, "--config", config]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"output path {config} would overwrite an input file" in captured.err
    assert captured.out == ""
    assert (tmp_path / "run.json").read_text() == text
    assert not (tmp_path / "o.csv").exists()


def test_impute_does_not_mutate_inputs(impute_files):
    tmp_path, data, schema, config = impute_files
    before = (open(data).read(), open(schema).read())
    main(["impute", "--data", data, "--schema", schema, "--config", config, "--out", str(tmp_path / "o.csv")])
    assert (open(data).read(), open(schema).read()) == before


def test_impute_identical_invocations_identical_outputs(impute_files):
    tmp_path, data, schema, config = impute_files
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["impute", "--data", data, "--schema", schema, "--config", config]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_text() == b.read_text()


def test_flag_beats_config_file(impute_files):
    tmp_path, data, schema, config = impute_files
    report = tmp_path / "prov.csv"
    code = main(
        [
            "impute",
            "--data", data,
            "--schema", schema,
            "--config", config,
            "--mode", "absolute",
            "--out", str(tmp_path / "o.csv"),
            "--report", str(report),
        ]
    )
    assert code == EXIT_OK
    # The config file says paper-signed; the flag overrides it.
    assert ",absolute," in report.read_text().splitlines()[1]


def test_invalid_mode_value_in_config_exits_2(tmp_path, capsys):
    data = write(tmp_path / "data.csv", fixture_text("table03_missing_raw.csv"))
    schema = write(tmp_path / "schema.json", fixture_text("schema_missing.json"))
    config = write(tmp_path / "run.json", json.dumps({"mode": "sideways"}))
    code = main(["impute", "--data", data, "--schema", schema, "--config", config, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE
    assert "mode" in capsys.readouterr().err


def test_invalid_mode_flag_raises_argparse_exit():
    with pytest.raises(SystemExit) as excinfo:
        main(["impute", "--mode", "sideways"])
    assert excinfo.value.code == EXIT_USAGE


def test_malformed_config_json_exits_2(tmp_path, capsys):
    data = write(tmp_path / "data.csv", fixture_text("table03_missing_raw.csv"))
    schema = write(tmp_path / "schema.json", fixture_text("schema_missing.json"))
    config = write(tmp_path / "run.json", "{broken")
    code = main(["impute", "--data", data, "--schema", schema, "--config", config, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE
    assert "JSON" in capsys.readouterr().err


def test_non_integer_k_in_config_exits_2(impute_files, capsys):
    tmp_path, data, schema, _ = impute_files
    config = write(tmp_path / "k.json", json.dumps({"k": "2"}))
    code = main(["impute", "--data", data, "--schema", schema, "--config", config, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE
    assert "k must be an integer" in capsys.readouterr().err


def test_non_integer_init_seed_in_config_exits_2(impute_files, capsys):
    tmp_path, data, schema, _ = impute_files
    config = write(
        tmp_path / "init.json", json.dumps({"init": {"policy": "farthest-first", "seed": "x"}})
    )
    code = main(["impute", "--data", data, "--schema", schema, "--config", config, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE
    assert "init seed must be an integer" in capsys.readouterr().err


def test_fixed_partition_naming_an_unknown_record_exits_2(impute_files, capsys):
    tmp_path, data, schema, _ = impute_files
    config = write(
        tmp_path / "fp.json",
        json.dumps({"init": {"policy": "fixed-partition", "groups": [["R1", "R99"], ["R2"]]}}),
    )
    code = main(["impute", "--data", data, "--schema", schema, "--config", config, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE
    assert "R99" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [
        ([], "config file run.json must hold a JSON object"),
        ({"init": "x"}, "init must be an object with a 'policy' key"),
        ({"init": {"policy": "fixed-partition"}}, "fixed-partition init needs 'groups': a list of id lists"),
        ({"init": {"policy": "nope"}}, "unknown init policy 'nope'"),
    ],
)
def test_malformed_run_config_exits_2_with_its_message(impute_files, capsys, monkeypatch, config, message):
    tmp_path, data, schema, _ = impute_files
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "run.json", json.dumps(config))
    assert main(["impute", "--data", data, "--schema", schema, "--config", "run.json", "--out", "o.csv"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "attribute, message",
    [
        ({"kind": "weird"}, "attribute 'A2': unknown kind 'weird'"),
        ({"kind": "categorical", "encoding": [1]}, "attribute entry 1: 'encoding' must be an object"),
        ({"kind": "categorical", "encoding": {"a": "1"}}, "attribute entry 1: ordinal for 'a' must be an integer"),
    ],
)
def test_malformed_schema_exits_2_with_its_message(impute_files, capsys, attribute, message):
    tmp_path, data, schema, config = impute_files
    raw = json.loads(Path(schema).read_text())
    raw["attributes"][1].update(attribute)
    write(tmp_path / "schema.json", json.dumps(raw))
    code = main(["impute", "--data", data, "--schema", schema, "--config", config, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_seed_from_environment(impute_files, monkeypatch):
    tmp_path, data, schema, _ = impute_files
    monkeypatch.setenv(SEED_ENV_VAR, "7")
    code = main(["impute", "--data", data, "--schema", schema, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_OK


def test_non_integer_environment_seed_exits_2(impute_files, monkeypatch, capsys):
    tmp_path, data, schema, _ = impute_files
    monkeypatch.setenv(SEED_ENV_VAR, "lucky")
    code = main(["impute", "--data", data, "--schema", schema, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE
    assert SEED_ENV_VAR in capsys.readouterr().err


def test_negative_seed_exits_2(impute_files, capsys):
    tmp_path, data, schema, _ = impute_files
    code = main(["impute", "--data", data, "--schema", schema, "--seed", "-1", "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE
    assert "seed must be non-negative" in capsys.readouterr().err


def test_non_string_report_path_in_config_exits_2(impute_files, capsys):
    tmp_path, data, schema, _ = impute_files
    config = write(tmp_path / "bad.json", json.dumps({"report": 5}))
    code = main(["impute", "--data", data, "--schema", schema, "--config", config, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE
    assert "report must be a file path" in capsys.readouterr().err


def test_output_path_that_is_a_directory_exits_2(impute_files):
    tmp_path, data, schema, _ = impute_files
    assert main(["impute", "--data", data, "--schema", schema, "--out", str(tmp_path)]) == EXIT_USAGE


def test_magnitude_above_the_bound_exits_2_without_warnings(tmp_path, capsys):
    schema = write(
        tmp_path / "schema.json",
        json.dumps(
            {
                "attributes": [{"name": "a", "kind": "numeric"}, {"name": "b", "kind": "numeric"}],
                "label_column": "class",
            }
        ),
    )
    rows = "a,b,class\n1e300,1,A\n-1e300,2,B\n3,?,A\n4,4,B\n5,5,A\n"
    data = write(tmp_path / "data.csv", rows)
    train = write(tmp_path / "train.csv", rows.replace("?", "3"))
    query = write(tmp_path / "query.csv", "a,b\n1,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        impute = main(["impute", "--data", data, "--schema", schema, "--out", str(tmp_path / "o.csv")])
        classify = main(
            ["classify", "--train", train, "--schema", schema, "--query", query, "--with-knn-baseline"]
        )
    assert (impute, classify) == (EXIT_USAGE, EXIT_USAGE)
    assert "magnitude bound" in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe"


def assert_not_utf8_exits_2(argv, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "not UTF-8" in err and "internal error" not in err


@pytest.mark.parametrize("reader", ["data", "schema", "config"])
def test_non_utf8_impute_input_exits_2(impute_files, capsys, reader):
    tmp_path, data, schema, config = impute_files
    files = {"data": data, "schema": schema, "config": config}
    with open(files[reader], "wb") as fh:
        fh.write(NOT_UTF8)
    argv = ["impute", "--data", data, "--schema", schema, "--config", config]
    assert_not_utf8_exits_2(argv + ["--out", str(tmp_path / "o.csv")], capsys)


@pytest.mark.parametrize("reader", ["train", "query"])
def test_non_utf8_classify_input_exits_2(classify_files, capsys, reader):
    _, train, schema, query, config = classify_files
    with open({"train": train, "query": query}[reader], "wb") as fh:
        fh.write(NOT_UTF8)
    argv = ["classify", "--train", train, "--schema", schema, "--query", query, "--config", config]
    assert_not_utf8_exits_2(argv, capsys)


def test_non_utf8_evaluate_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "exp.json"
    spec.write_bytes(NOT_UTF8)
    assert_not_utf8_exits_2(["evaluate", "--config", str(spec)], capsys)


# --- classify ---


def test_classify_reference_query_signed(classify_files, tmp_path):
    _, train, schema, query, config = classify_files
    out = tmp_path / "labels.csv"
    code = main(
        [
            "classify",
            "--train", train,
            "--schema", schema,
            "--query", query,
            "--config", config,
            "--mode", "paper-signed",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert out.read_text() == "query,labels,nearest\nQ1,Level-2,R8\n"


def test_classify_reference_query_absolute_with_baseline(classify_files, tmp_path):
    _, train, schema, query, config = classify_files
    out = tmp_path / "labels.csv"
    code = main(
        [
            "classify",
            "--train", train,
            "--schema", schema,
            "--query", query,
            "--config", config,
            "--with-knn-baseline",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "query,labels,nearest,knn_labels,knn_nearest"
    assert lines[1] == "Q1,Level-2,R9,Level-1;Level-2,R4;R9"


def test_classify_builds_a_record_only_for_the_knn_baseline(classify_files, tmp_path, monkeypatch):
    _, train, schema, query, config = classify_files
    write(tmp_path / "query.csv", QUERY_HEADER + NEW_RECORD_ROW + "1,1,1,1\n")
    built = []
    original = Record.__new__

    def counting(cls, *args, **kwargs):
        built.append(args[0])
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Record, "__new__", counting)
    argv = ["classify", "--train", train, "--schema", schema, "--query", query, "--config", config]
    assert main(argv + ["--out", str(tmp_path / "mapped.csv")]) == EXIT_OK
    assert built == []
    assert main(argv + ["--with-knn-baseline", "--out", str(tmp_path / "both.csv")]) == EXIT_OK
    assert built == ["Q1", "Q2"]


def test_classify_writes_to_stdout_without_out(classify_files, capsys):
    _, train, schema, query, config = classify_files
    code = main(
        ["classify", "--train", train, "--schema", schema, "--query", query, "--config", config]
    )
    assert code == EXIT_OK
    assert "Q1,Level-2" in capsys.readouterr().out


def test_classify_with_more_clusters_than_distinct_points_exits_3(tmp_path, capsys):
    rows = ["0,2,A", "0,0,B", "0,1,A", "0,0,B", "1,0,A", "0,1,B", "1,0,A", "0,0,B"]
    train = write(tmp_path / "train.csv", "x,y,class\n" + "\n".join(rows) + "\n")
    schema = write(
        tmp_path / "schema.json",
        json.dumps(
            {
                "attributes": [{"name": "x", "kind": "numeric"}, {"name": "y", "kind": "numeric"}],
                "label_column": "class",
            }
        ),
    )
    query = write(tmp_path / "query.csv", "x,y\n1,1\n")
    code = main(["classify", "--train", train, "--schema", schema, "--query", query, "--k", "5"])
    assert code == EXIT_INSUFFICIENT
    assert "4 distinct" in capsys.readouterr().err


def test_non_string_out_path_in_config_exits_2_for_classify(classify_files, capsys):
    tmp_path, train, schema, query, _ = classify_files
    config = write(tmp_path / "bad.json", json.dumps({"out": 5}))
    code = main(["classify", "--train", train, "--schema", schema, "--query", query, "--config", config])
    assert code == EXIT_USAGE
    assert "out must be a file path" in capsys.readouterr().err

def test_classify_empty_query_file_gives_header_only_report(classify_files, tmp_path):
    _, train, schema, _, config = classify_files
    empty = write(tmp_path / "empty.csv", "")
    out = tmp_path / "labels.csv"
    code = main(
        ["classify", "--train", train, "--schema", schema, "--query", empty, "--config", config, "--out", str(out)]
    )
    assert code == EXIT_OK
    assert out.read_text() == "query,labels,nearest\n"


# Labels and symbols holding a comma, a quote and a line break: every
# report must quote them as csv.writer does.
AWKWARD_LABELS = ("a,b", 'say "c"', "d\ne")
AWKWARD_SYMBOLS = ("s,1", 's"2', "s\n3")


def awkward_files(tmp_path):
    """A complete labeled table whose labels and categorical symbols
    need quoting, a copy of it with holes, a query file, its schema and
    an experiment spec naming the complete table."""
    rng = np.random.default_rng(5)
    segment = rng.integers(0, 3, 60)
    x = (segment * 10 + rng.normal(0, 1, 60)).round(3)
    y = (segment * -4 + rng.normal(0, 1, 60)).round(3)
    symbols = [AWKWARD_SYMBOLS[s] for s in segment]
    labels = [AWKWARD_LABELS[s] for s in segment]

    def table(rows, header):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        return buf.getvalue()

    rows = [[str(a), str(b), s, label] for a, b, s, label in zip(x, y, symbols, labels)]
    holed = [list(r) for r in rows]
    for i in range(0, 60, 7):
        holed[i][i % 3] = "?"
    attributes = [
        {"name": "x", "kind": "numeric"},
        {"name": "y", "kind": "numeric"},
        {"name": "s", "kind": "categorical", "encoding": {s: i + 1 for i, s in enumerate(AWKWARD_SYMBOLS)}},
    ]
    return (
        write(tmp_path / "train.csv", table(rows, ["x", "y", "s", "class"])),
        write(tmp_path / "holed.csv", table(holed, ["x", "y", "s", "class"])),
        write(tmp_path / "query.csv", table([r[:3] for r in rows[:9]], ["x", "y", "s"])),
        write(tmp_path / "schema.json", json.dumps({"attributes": attributes, "label_column": "class"})),
        write(tmp_path / "spec.json", json.dumps({"dataset": "train.csv", "schema": "schema.json", "trials": 2})),
    )


def read_rows(path) -> list[list[str]]:
    """Every row of a CSV file, each of the header's width."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert rows and all(len(row) == len(header) for row in rows)
    return rows


def test_every_report_reads_back_as_csv_with_its_labels_and_symbols(tmp_path):
    train, holed, query, schema, spec = awkward_files(tmp_path)
    out, report = tmp_path / "out.csv", tmp_path / "report.csv"
    assert main(["impute", "--data", holed, "--schema", schema, "--out", str(out), "--report", str(report)]) == EXIT_OK
    completed, truth, holes = read_rows(out), read_rows(train), read_rows(holed)
    assert [row[3] for row in completed] == [row[3] for row in truth]
    assert all(c == t for got, want, hole in zip(completed, truth, holes) for c, t, h in zip(got, want, hole) if h != "?")
    assert {row[2] for row in completed} == set(AWKWARD_SYMBOLS)
    filled = read_rows(report)
    assert {row[4] for row in filled if row[1] == "s"} <= set(AWKWARD_SYMBOLS)
    assert any(row[1] == "s" for row in filled)

    argv = ["classify", "--train", train, "--schema", schema, "--query", query]
    for extra in ([], ["--with-knn-baseline"]):
        labels = tmp_path / "labels.csv"
        assert main(argv + extra + ["--out", str(labels)]) == EXIT_OK
        rows = read_rows(labels)
        assert [row[0] for row in rows] == [f"Q{i}" for i in range(1, 10)]
        named = [label for row in rows for field in row[1::2] for label in field.split(";")]
        assert set(named) <= set(AWKWARD_LABELS) and len(rows[0]) == 3 + len(extra) * 2

    summary = tmp_path / "summary.csv"
    assert main(["evaluate", "--config", spec, "--out", str(tmp_path / "report.json"), "--summary", str(summary)]) == EXIT_OK
    assert len(read_rows(summary)) == 8  # four methods, two trials


def test_classify_wrong_arity_query_exits_2_naming_row(classify_files, tmp_path, capsys):
    _, train, schema, _, config = classify_files
    bad = write(tmp_path / "bad.csv", QUERY_HEADER + "2,5,2,9\n1,2,3\n")
    code = main(["classify", "--train", train, "--schema", schema, "--query", bad, "--config", config])
    assert code == EXIT_USAGE
    assert "row 3" in capsys.readouterr().err


def oversized_field() -> str:
    """One field longer than the csv module accepts."""
    return "9" * (csv.field_size_limit() + 1)


def test_impute_oversized_field_exits_2_naming_row(impute_files, capsys):
    tmp_path, _, schema, config = impute_files
    rows = fixture_text("table03_missing_raw.csv").splitlines()
    rows[3] = oversized_field() + rows[3][rows[3].index(",") :]
    data = write(tmp_path / "big.csv", "\n".join(rows) + "\n")
    code = main(["impute", "--data", data, "--schema", schema, "--config", config, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "row 4" in err and "field larger than field limit" in err


def test_classify_oversized_query_field_exits_2_naming_row(classify_files, tmp_path, capsys):
    _, train, schema, _, config = classify_files
    big = write(tmp_path / "big.csv", QUERY_HEADER + NEW_RECORD_ROW + oversized_field() + ",5,2,9\n")
    code = main(["classify", "--train", train, "--schema", schema, "--query", big, "--config", config])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "row 3" in err and "field larger than field limit" in err


def test_classify_incomplete_query_exits_2(classify_files, tmp_path, capsys):
    _, train, schema, _, config = classify_files
    holed = write(tmp_path / "holed.csv", QUERY_HEADER + NEW_RECORD_ROW + "2,?,2,9\n?,5,?,9\n")
    code = main(["classify", "--train", train, "--schema", schema, "--query", holed, "--config", config])
    assert code == EXIT_USAGE
    assert "query record Q2 has missing cells" in capsys.readouterr().err


def test_classify_unlabeled_training_exits_4(tmp_path, capsys):
    rows = fixture_text("table16_classification.csv").splitlines()
    rows[3] = rows[3].rsplit(",", 1)[0] + ","  # drop R3's label
    train = write(tmp_path / "train.csv", "\n".join(rows) + "\n")
    schema = write(tmp_path / "schema.json", fixture_text("schema_classification.json"))
    query = write(tmp_path / "query.csv", QUERY_HEADER + NEW_RECORD_ROW)
    code = main(["classify", "--train", train, "--schema", schema, "--query", query])
    assert code == EXIT_UNLABELED
    assert "R3" in capsys.readouterr().err



def test_classify_incomplete_training_record_exits_2(tmp_path, capsys):
    rows = fixture_text("table16_classification.csv").splitlines()
    rows[2] = "3,?,1,5,Level-1"  # R2
    train = write(tmp_path / "train.csv", "\n".join(rows) + "\n")
    schema = write(tmp_path / "schema.json", fixture_text("schema_classification.json"))
    query = write(tmp_path / "query.csv", QUERY_HEADER + NEW_RECORD_ROW)
    code = main(["classify", "--train", train, "--schema", schema, "--query", query])
    assert code == EXIT_USAGE
    assert "training record R2 has missing cells; impute first" in capsys.readouterr().err


def test_classify_training_label_holding_the_tie_separator_exits_2_before_writing(tmp_path, capsys):
    # With labels "Level;1" and "Level-2" a tie would print
    # "Level;1;Level-2", which reads as three labels.
    rows = fixture_text("table16_classification.csv").splitlines()
    for i in (2, 4):  # R2 and R4
        rows[i] = rows[i].replace("Level-1", "Level;1")
    train = write(tmp_path / "train.csv", "\n".join(rows) + "\n")
    schema = write(tmp_path / "schema.json", fixture_text("schema_classification.json"))
    query = write(tmp_path / "query.csv", QUERY_HEADER + NEW_RECORD_ROW)
    out = tmp_path / "labels.csv"
    code = main(["classify", "--train", train, "--schema", schema, "--query", query, "--out", str(out)])
    assert code == EXIT_USAGE
    assert "training record R2 has a label holding ';'" in capsys.readouterr().err
    assert not out.exists()


def test_classify_training_without_labels_and_without_k_exits_4(tmp_path, capsys):
    rows = [row.rsplit(",", 1)[0] + "," for row in fixture_text("table16_classification.csv").splitlines()]
    train = write(tmp_path / "train.csv", "P1,P2,P3,P4,Class\n" + "\n".join(rows[1:]) + "\n")
    schema = write(tmp_path / "schema.json", fixture_text("schema_classification.json"))
    query = write(tmp_path / "query.csv", QUERY_HEADER + NEW_RECORD_ROW)
    code = main(["classify", "--train", train, "--schema", schema, "--query", query])
    assert code == EXIT_UNLABELED
    assert "training records without labels" in capsys.readouterr().err


# --- evaluate ---


def test_evaluate_writes_report_and_summary(tmp_path):
    spec = write(
        tmp_path / "exp.json",
        json.dumps(
            {
                "synthetic": {"records": 15, "seed": 4},
                "methods": ["cluster-map-absolute", "per-class-mean-mode"],
                "rates": [0.1],
                "trials": 2,
                "master_seed": 5,
            }
        ),
    )
    out = tmp_path / "report.json"
    summary = tmp_path / "summary.csv"
    code = main(["evaluate", "--config", spec, "--out", str(out), "--summary", str(summary)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert {r["method"] for r in payload["results"]} == {
        "cluster-map-absolute",
        "per-class-mean-mode",
    }
    assert len(payload["results"]) == 4
    assert summary.read_text().startswith("method,rate,trial")


@pytest.mark.parametrize(
    "outputs",
    [
        ["--summary", "exp.json"],  # without --out, the report goes to stdout
        ["--out", "exp.json"],
        ["--out", "report.json", "--summary", "report.json"],
    ],
)
def test_evaluate_rejects_an_output_that_collides(tmp_path, capsys, outputs):
    text = json.dumps({"synthetic": {"records": 15, "seed": 4}, "methods": ["per-class-mean-mode"], "trials": 1})
    spec = write(tmp_path / "exp.json", text)
    code = main(["evaluate", "--config", spec, *(str(tmp_path / a) if a.endswith(".json") else a for a in outputs)])
    assert code == EXIT_USAGE
    assert "overwrite" in capsys.readouterr().err
    assert (tmp_path / "exp.json").read_text() == text
    assert not (tmp_path / "report.json").exists()


def test_evaluate_plan_reproduces_the_reference_scores(tmp_path, capsys):
    write(tmp_path / "data.csv", fixture_text("table01_raw.csv"))
    write(tmp_path / "schema.json", fixture_text("schema_missing.json"))
    spec = write(
        tmp_path / "exp.json",
        json.dumps(
            {
                "dataset": "data.csv",
                "schema": "schema.json",
                "plan": [["R3", 2], ["R5", 3]],
                "methods": ["cluster-map-paper-signed"],
            }
        ),
    )
    code = main(["evaluate", "--config", spec])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    row = payload["results"][0]
    assert row["numeric_rmse"] == 0.0
    assert row["categorical_accuracy"] == 1.0


def test_evaluate_unknown_method_exits_2(tmp_path, capsys):
    spec = write(
        tmp_path / "exp.json",
        json.dumps({"synthetic": {"records": 12}, "methods": ["telepathy"]}),
    )
    assert main(["evaluate", "--config", spec]) == EXIT_USAGE
    assert "telepathy" in capsys.readouterr().err


def test_evaluate_method_listed_twice_exits_2(tmp_path, capsys):
    spec = {"synthetic": {"records": 30}, "methods": ["raw-knn-donor", "raw-knn-donor"]}
    assert main(["evaluate", "--config", write(tmp_path / "exp.json", json.dumps(spec))]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "method 'raw-knn-donor' listed twice" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"synthetic": {"records": "x"}}, "synthetic.records"),
        ({"synthetic": {"records": 60.0}}, "synthetic.records"),
        ({"synthetic": {"seed": True}}, "synthetic.seed"),
        ({"synthetic": {"seed": -1}}, "synthetic.seed"),
        ({"synthetic": {}, "trials": [1]}, "trials"),
        ({"synthetic": {}, "trials": "2"}, "trials"),
        ({"synthetic": {}, "master_seed": 1.5}, "master_seed"),
        ({"synthetic": {}, "master_seed": -3}, "master_seed"),
        ({"synthetic": {}, "rates": ["0.1"]}, "rate"),
        ({"synthetic": {}, "rates": [10**400]}, "rate"),
        ({"synthetic": {}, "holdout_fraction": None}, "holdout_fraction"),
        ({"synthetic": {}, "plan": [["R1", "0"]]}, "plan attribute index"),
        ({"synthetic": {}, "plan": [["R1", 1.0]]}, "plan attribute index"),
        ({"synthetic": {}, "plan": [["R99", 0]]}, "R99"),
        ({"dataset": 3, "schema": "schema.json"}, "dataset"),
        ({"dataset": "data.csv", "schema": "a\0b"}, "schema"),
    ],
)
def test_evaluate_spec_value_of_the_wrong_type_exits_2(tmp_path, capsys, spec, field):
    path = write(tmp_path / "exp.json", json.dumps(spec))
    assert main(["evaluate", "--config", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert field in err and "internal error" not in err


@pytest.mark.parametrize("target", ["n.csv", "ns.json"], ids=["dataset", "schema"])
@pytest.mark.parametrize("flag", ["--out", "--summary"])
def test_evaluate_refuses_to_overwrite_a_file_its_spec_reads(tmp_path, capsys, flag, target):
    texts = {"n.csv": fixture_text("table01_raw.csv"), "ns.json": fixture_text("schema_missing.json")}
    for name, text in texts.items():
        write(tmp_path / name, text)
    spec = write(tmp_path / "spec.json", json.dumps({"dataset": "n.csv", "schema": "ns.json"}))
    out = str(tmp_path / target)
    assert main(["evaluate", "--config", spec, flag, out]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"output path {out} would overwrite an input file" in captured.err
    assert captured.out == ""
    assert {name: (tmp_path / name).read_text() for name in texts} == texts


@pytest.mark.parametrize("synthetic", [0, False, "", []])
def test_evaluate_falsy_synthetic_that_is_not_an_object_exits_2(tmp_path, capsys, synthetic):
    spec = write(tmp_path / "exp.json", json.dumps({"synthetic": synthetic, "methods": ["per-class-mean-mode"]}))
    assert main(["evaluate", "--config", spec]) == EXIT_USAGE
    assert "'synthetic' must be an object" in capsys.readouterr().err


def test_evaluate_null_synthetic_means_the_default_dataset(tmp_path, capsys):
    reports = []
    for synthetic in (None, {}):
        spec = write(tmp_path / "exp.json", json.dumps({"synthetic": synthetic, "methods": ["per-class-mean-mode"]}))
        assert main(["evaluate", "--config", spec]) == EXIT_OK
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_evaluate_record_count_past_the_float_range_exits_2(tmp_path, capsys):
    spec = write(tmp_path / "exp.json", json.dumps({"synthetic": {"records": 10**400}}))
    assert main(["evaluate", "--config", spec]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "synthetic.records is out of range" in err and "internal error" not in err


def test_evaluate_without_a_holdout_reports_no_downstream_accuracy(tmp_path, capsys):
    spec = {"synthetic": {"records": 20}, "holdout_fraction": 0, "methods": ["raw-knn-donor"], "trials": 2}
    assert main(["evaluate", "--config", write(tmp_path / "exp.json", json.dumps(spec))]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert [r["downstream_accuracy"] for r in report["results"]] == [None] * 2
    assert report["aggregates"]["raw-knn-donor"]["downstream_accuracy"] is None


def test_evaluate_holdout_that_leaves_too_little_training_data_exits_2(tmp_path, capsys):
    spec = {"synthetic": {"records": 12}, "holdout_fraction": 0.9}
    assert main(["evaluate", "--config", write(tmp_path / "exp.json", json.dumps(spec))]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: holdout of 11 records leaves too little training data\n"
    assert captured.out == ""


def test_evaluate_outputs_are_pinned(tmp_path):
    # The sha256 of --out and --summary as the hand-written report rows wrote them.
    spec = write(
        tmp_path / "exp.json",
        json.dumps({"synthetic": {"records": 60, "seed": 7}, "rates": [0.1, 0.2], "trials": 3, "master_seed": 11}),
    )
    out, summary = tmp_path / "report.json", tmp_path / "summary.csv"
    assert main(["evaluate", "--config", spec, "--out", str(out), "--summary", str(summary)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "edb42e69b34c05c8423f752e833df8b7be8251312c4758de8779406c13a3b97f"
    )
    assert hashlib.sha256(summary.read_bytes()).hexdigest() == (
        "e2a16bee914ccda804323357c85aacb010d7bd3dd4323db8104a099e03225ee0"
    )


def test_evaluate_out_of_data_exits_3_naming_rate_trial_and_method(tmp_path, capsys):
    spec = write(
        tmp_path / "exp.json",
        json.dumps({"synthetic": {"records": 60, "seed": 7}, "rates": [0.1, 0.3], "trials": 3, "master_seed": 11}),
    )
    assert main(["evaluate", "--config", spec]) == EXIT_INSUFFICIENT
    err = capsys.readouterr().err
    assert err == "error: rate 0.3, trial 0, cluster-map-paper-signed: 2 complete records cannot form 3 clusters\n"


@pytest.mark.parametrize("argv", [["casestudy", "-v"], ["evaluate", "--config", "F", "-v"], ["casestudy", "--verbose"]])
def test_evaluate_and_casestudy_take_no_verbose_flag(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_evaluate_requires_config_flag(capsys):
    assert main(["evaluate"]) == EXIT_USAGE
    assert "--config" in capsys.readouterr().err


def test_evaluate_missing_config_file_exits_2(tmp_path):
    assert main(["evaluate", "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE


# --- casestudy ---


def test_casestudy_default_run_passes(capsys):
    code = main(["casestudy"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "0 mismatches" in out
    assert "4 documented errata" in out


@pytest.mark.parametrize(
    ("argv", "sha256"),
    [
        ([], "a744c4dd1cf2d86329d5f292fd21cc6033cab82eb2e9ac7a75fa25751c479c7c"),
        # Every number cell misses at this tolerance, so the report
        # prints each one's computed value.
        (["--tolerance", "1e-9"], "e12afa62f5f95bce65a1831252c1c64389cf2fe74b5f0e92664f655f17ccdbc1"),
    ],
)
def test_casestudy_report_is_pinned(argv, sha256, capsys):
    main(["casestudy", *argv])
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


def test_casestudy_checks_do_not_depend_on_the_hash_seed():
    # Set and dict orders of strings change with PYTHONHASHSEED.
    package_root = os.path.dirname(os.path.dirname(cmimpute.__file__))
    code = "from cmimpute.casestudy import run_case_study; print(repr(run_case_study()))"
    reports = [
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=dict(
                os.environ,
                PYTHONHASHSEED=seed,
                PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
            ),
        ).stdout
        for seed in ("1", "2")
    ]
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    ("tolerance", "sha256"),
    [
        (1e-5, "04153208d6fe2a55347b932e133bc4d94b986de07f2ffac8108cbc1576aafad2"),
        (1e-9, "0f84bb7f1b0277f49f6c2e29b3434ca60c73c2aa6bc8af9789cd35db67a71092"),
    ],
)
def test_casestudy_report_repr_is_pinned(tolerance, sha256):
    # The stdout pins skip the strings of passing checks and the order
    # inside interleaved tables; the report's repr holds both.
    report = run_case_study(tolerance)
    assert (len(report.checks), len(report.errata)) == (118, 4)
    assert hashlib.sha256(repr(report).encode()).hexdigest() == sha256


# Per printed table: the mismatches that corrupting its first data row
# gives, and the first of them as (table, cell).
CORRUPTED_TABLE_MISMATCHES = {
    "table06_clusters.csv": (1, "clusters (Table VI)", "C1"),
    "table07.csv": (1, "centroid distances (Tables VII-VIII)", "R1"),
    "table08.csv": (1, "centroid distances (Tables VII-VIII)", "R1"),
    "table09.csv": (1, "mapping values (Table IX)", "R1"),
    "table10.csv": (1, "query distances (Table X)", "R3"),
    # The printed Table XI drives the replayed Table XII grid.
    "table11.csv": (7, "difference grid, replay (Table XII)", "R1"),
    "table12.csv": (1, "difference grid, replay (Table XII)", "R1"),
    "table13.csv": (1, "nearest donor (Table XIII)", "R8 row"),
    "table14.csv": (1, "difference grid, replay (Table XIV)", "R1"),
    "table15.csv": (1, "nearest donor (Table XV)", "R8 row"),
    "table17.csv": (1, "raw 1-NN distances (Table XVII)", "R1"),
    "table18_clusters.csv": (1, "clusters (Table XVIII)", "C1"),
    "table19.csv": (1, "centroid distances (Table XIX)", "R1"),
    "table20.csv": (1, "centroid distances (Table XX)", "R1"),
    "table21.csv": (1, "mapping values (Table XXI)", "R1"),
    "table22.csv": (1, "new-record distances (Table XXII)", "R10 first"),
    # The printed Table XXIII also feeds the printed-table replay.
    "table23.csv": (2, "new-record mapping value (Table XXIII)", "R10"),
    "table24.csv": (1, "difference column (Table XXIV)", "R1"),
}


def _corrupt_first_row(name: str, text: str) -> str:
    """The fixture with its first data row corrupted: R9 moved to R2 in
    a cluster file, 0.5 added to the first value elsewhere."""
    header, first, *rest = text.splitlines(keepends=True)
    if name.endswith("_clusters.csv"):
        first = first.replace("R9", "R2")
    else:
        rid, value, *more = first.rstrip("\n").split(",")
        first = ",".join([rid, repr(float(value) + 0.5), *more]) + "\n"
    return "".join([header, first, *rest])


def test_every_printed_table_has_a_corruption_case():
    expected = resources.files("cmimpute") / "fixtures" / "casestudy" / "expected"
    assert sorted(p.name for p in expected.iterdir()) == sorted(CORRUPTED_TABLE_MISMATCHES)


@pytest.mark.parametrize("name", sorted(CORRUPTED_TABLE_MISMATCHES))
def test_casestudy_checks_every_printed_table(name, monkeypatch, capsys):
    original = cmimpute.casestudy.fixture_text

    def corrupted(path):
        text = original(path)
        return _corrupt_first_row(name, text) if path == f"expected/{name}" else text

    monkeypatch.setattr(cmimpute.casestudy, "fixture_text", corrupted)
    report = run_case_study()
    first = report.first_mismatch
    assert (len(report.mismatches), first.table, first.cell) == CORRUPTED_TABLE_MISMATCHES[name]
    assert main(["casestudy"]) == EXIT_MISMATCH
    assert f"mismatch: {first.table}, {first.cell}:" in capsys.readouterr().err


def test_casestudy_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main(["casestudy", "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_text() == capsys.readouterr().out


def test_casestudy_tight_tolerance_reports_mismatches(capsys):
    # The reference tables print six decimals, so a tolerance below
    # their rounding error must surface mismatches and exit 5.
    code = main(["casestudy", "--tolerance", "1e-9"])
    captured = capsys.readouterr()
    assert code == EXIT_MISMATCH
    assert "mismatch" in captured.err


def test_casestudy_nonpositive_tolerance_exits_2(capsys):
    assert main(["casestudy", "--tolerance", "0"]) == EXIT_USAGE
    assert "positive" in capsys.readouterr().err


def test_non_string_out_path_in_config_exits_2_for_casestudy(tmp_path, capsys):
    config = write(tmp_path / "bad.json", json.dumps({"out": 5}))
    assert main(["casestudy", "--config", config]) == EXIT_USAGE
    assert "out must be a file path" in capsys.readouterr().err


def test_nan_tolerance_in_config_exits_2(tmp_path):
    config = write(tmp_path / "nan.json", '{"tolerance": NaN}')
    assert main(["casestudy", "--config", config]) == EXIT_USAGE

def test_casestudy_missing_fixture_exits_2(monkeypatch, capsys):
    def boom(name):
        raise FileNotFoundError(f"fixture {name} is gone")

    monkeypatch.setattr(cmimpute.casestudy, "fixture_text", boom)
    assert main(["casestudy"]) == EXIT_USAGE
    assert "gone" in capsys.readouterr().err


# --- run options ---


def resolve(argv):
    """The resolved options of a command line, as the subcommand gets them."""
    return cmimpute.cli._resolve(cmimpute.cli.build_parser().parse_args(argv))


# Per run option: a subcommand that reads it from a run config, and
# values of the wrong JSON type for it.  evaluate reads no run config,
# so summary, its own option, has no config value to check.
WRONG_TYPE = [
    ("data", "impute", 5),
    ("schema", "impute", ["schema.json"]),
    ("train", "classify", 5),
    ("query", "classify", {"path": "q.csv"}),
    ("out", "classify", 5),
    ("report", "impute", False),
    ("seed", "impute", "1"),
    ("mode", "classify", 1),
    ("k", "impute", "2"),
    ("with_knn_baseline", "classify", "false"),
    ("tolerance", "casestudy", True),
    ("tolerance", "casestudy", "1e-5"),
    ("verbose", "impute", "no"),
]
CONFIG_READERS = {key: command for key, command, _ in WRONG_TYPE}


def test_every_run_config_option_has_a_wrong_type_case():
    assert CONFIG_READERS.keys() == OPTIONS.keys() - {"summary"}


@pytest.mark.parametrize(("key", "command", "value"), WRONG_TYPE)
def test_run_config_value_of_the_wrong_json_type_exits_2(tmp_path, capsys, key, command, value):
    config = write(tmp_path / "run.json", json.dumps({key: value}))
    assert main([command, "--config", config]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {key} ") and captured.out == ""


def test_evaluate_never_reads_its_spec_as_a_run_config(tmp_path, capsys):
    spec = write(
        tmp_path / "exp.json",
        json.dumps({"synthetic": {"records": 12}, "methods": ["per-class-mean-mode"], "summary": 5, "out": 5}),
    )
    assert main(["evaluate", "--config", spec]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"]
    assert sorted(os.listdir(tmp_path)) == ["exp.json"]


@pytest.mark.parametrize("key", sorted(CONFIG_READERS))
def test_a_null_option_gives_its_default(tmp_path, monkeypatch, key):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    config = write(tmp_path / "run.json", json.dumps({key: None}))
    resolved = resolve([CONFIG_READERS[key], "--config", config])
    assert getattr(resolved, key) == OPTIONS[key][1]


def test_seed_comes_from_the_flag_then_the_config_then_the_environment(tmp_path, monkeypatch):
    config = write(tmp_path / "run.json", json.dumps({"seed": 2}))
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    runs = [[], ["--config", config], ["--config", config, "--seed", "1"]]
    assert [resolve(["impute", *argv]).seed for argv in runs] == [0, 2, 1]
    monkeypatch.setenv(SEED_ENV_VAR, "3")
    assert [resolve(["classify", *argv]).seed for argv in runs] == [3, 2, 1]
    assert [resolve(["classify", *argv]).init for argv in runs] == [FarthestFirst(s) for s in (3, 2, 1)]


def test_every_flag_is_a_checked_option_and_the_readme_lists_each():
    parser = cmimpute.cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for sub in subparsers.choices.values() for a in sub._actions} - {"config", "help"}
    assert dests == OPTIONS.keys()
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert [row.split("`")[1] for row in rows] == list(OPTIONS)


@pytest.mark.parametrize("value", ["1" * 5000, "[" * 100000 + "]" * 100000], ids=["digits", "nesting"])
@pytest.mark.parametrize("reader", ["config", "schema", "spec"])
def test_json_past_a_python_limit_exits_2(tmp_path, capsys, reader, value):
    config = write(tmp_path / "run.json", f'{{"seed": {value}}}' if reader == "config" else "{}")
    schema = write(tmp_path / "schema.json", f'{{"attributes": {value}}}' if reader == "schema" else "{}")
    spec = write(tmp_path / "exp.json", f'{{"synthetic": {{"records": {value}}}}}')
    argv = {
        "config": ["casestudy", "--config", config],
        "schema": ["impute", "--data", "d.csv", "--schema", schema, "--out", str(tmp_path / "o.csv")],
        "spec": ["evaluate", "--config", spec],
    }[reader]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "not valid JSON" in err and "internal error" not in err


# --- dispatch ---


def test_exit_code_constants_are_documented_values():
    assert (EXIT_OK, EXIT_INTERNAL, EXIT_USAGE, EXIT_INSUFFICIENT, EXIT_UNLABELED, EXIT_MISMATCH) == (
        0, 1, 2, 3, 4, 5,
    )


def test_unknown_subcommand_raises_argparse_exit():
    with pytest.raises(SystemExit) as excinfo:
        main(["transmogrify"])
    assert excinfo.value.code == EXIT_USAGE


def test_main_builds_its_parser_once_and_reuses_it(tmp_path, capsys, monkeypatch):
    impute_data = write(tmp_path / "data.csv", fixture_text("table03_missing_raw.csv"))
    impute_schema = write(tmp_path / "missing.json", fixture_text("schema_missing.json"))
    train = write(tmp_path / "train.csv", fixture_text("table16_classification.csv"))
    train_schema = write(tmp_path / "classification.json", fixture_text("schema_classification.json"))
    query = write(tmp_path / "query.csv", QUERY_HEADER + NEW_RECORD_ROW + "1,1,1,1\n")
    out = str(tmp_path / "out.csv")
    impute = ["impute", "--data", impute_data, "--schema", impute_schema, "--out", out]
    classify = ["classify", "--train", train, "--schema", train_schema, "--query", query]
    # Flags set on one call must not linger into the next.
    runs = [
        impute + ["--mode", "paper-signed", "--k", "2"],
        classify + ["--with-knn-baseline", "--verbose", "--out", out],
        impute,
        classify + ["--mode", "paper-signed"],
        ["casestudy", "--tolerance", "1e-9"],
        impute + ["--data", str(tmp_path / "absent.csv")],
        ["evaluate"],
        ["impute", "--mode", "bogus"],
        classify + ["--out", out],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
        output = capsys.readouterr()
        written = None
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                written = fh.read()
            os.remove(out)
        return code, output.out, output.err, written

    fresh = []
    for argv in runs:
        cmimpute.cli._parser.cache_clear()
        fresh.append(run(argv))
    builds = []
    original = cmimpute.cli.build_parser

    def counting():
        builds.append(1)
        return original()

    monkeypatch.setattr(cmimpute.cli, "build_parser", counting)
    cmimpute.cli._parser.cache_clear()
    try:
        assert [run(argv) for argv in runs] == fresh
    finally:
        cmimpute.cli._parser.cache_clear()
    assert len(builds) == 1
    assert [r[0] for r in fresh] == [EXIT_OK] * 4 + [EXIT_MISMATCH, EXIT_USAGE, EXIT_USAGE, EXIT_USAGE, EXIT_OK]


def test_installed_console_script_smoke():
    # The child imports the same cmimpute as this test run.
    package_root = os.path.dirname(os.path.dirname(cmimpute.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "cmimpute.cli"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))),
    )
    # Module execution without a subcommand is a usage error.
    assert proc.returncode == EXIT_USAGE
