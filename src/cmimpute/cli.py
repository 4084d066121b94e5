"""Batch command line front end.

Four subcommands: ``impute`` fills missing cells and writes the
completed dataset back in its original representation, ``classify``
labels complete query records against a labeled training table,
``evaluate`` runs the masking benchmark, and ``casestudy`` recomputes
the bundled reference tables and diffs them.

Each run option is declared once, in OPTIONS.  impute, classify and
casestudy also read options from ``--config run.json`` (keys named
after the flags; flags win), and the seed from ``CMIMPUTE_SEED``.

Exit codes: 0 success, 1 internal error, 2 parse/schema/config error
or a path that cannot be read or written, 3 insufficient data,
4 unlabeled training data, 5 case-study mismatch.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .casestudy import TOLERANCE, render_report, run_case_study
from .classify import check_training_data, classify_mapped_all, classify_raw_knn
from .dataset import (
    Schema,
    csv_text,
    format_number,
    load_dataset,
    load_schema,
    parse_dataset,
    write_dataset,
)
from .errors import (
    CannotClassifyError,
    ConfigError,
    InsufficientDataError,
    ParseError,
    SchemaError,
    config_bool,
    config_number,
    config_path,
    config_seed,
    read_json,
    read_text,
)
from .evaluate import experiment_from_spec, read_experiment_spec, run_experiment
from .impute import MODE_ABSOLUTE, MODES, ImputeConfig, impute_dataset, provenance_csv
from .kmeans import FarthestFirst, FixedPartition, SeededRandom, cluster

SEED_ENV_VAR = "CMIMPUTE_SEED"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_INSUFFICIENT = 3
EXIT_UNLABELED = 4
EXIT_MISMATCH = 5


def _load_run_config(path: str | None) -> dict:
    raw = {} if path is None else read_json(path, ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return raw


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"environment variable {SEED_ENV_VAR} must be an integer, got {raw!r}"
        ) from None


def _init_from_config(value, seed: int):
    """Build a clustering init policy from its config-file form;
    farthest-first from the run's seed when the config gives none."""
    if value is None:
        return FarthestFirst(seed)
    if not isinstance(value, dict) or "policy" not in value:
        raise ConfigError("init must be an object with a 'policy' key")
    policy = value["policy"]
    if policy == "fixed-partition":
        return FixedPartition(value.get("groups"))
    if policy in ("farthest-first", "seeded-random"):
        kind = FarthestFirst if policy == "farthest-first" else SeededRandom
        return kind(value.get("seed", seed))
    raise ConfigError(f"unknown init policy {policy!r}")


def _require(value, flag: str) -> str:
    if value is None:
        raise ConfigError(f"missing required option {flag}")
    return str(value)


def _guard_outputs(inputs: list[str | None], outputs: list[str | None]) -> None:
    """Commands never mutate their input files, nor write two outputs
    to one file."""
    taken = {Path(p).resolve() for p in inputs if p is not None}
    written: set[Path] = set()
    for out in outputs:
        if out is None:
            continue
        path = Path(out).resolve()
        if path in taken:
            raise ConfigError(f"output path {out} would overwrite an input file")
        if path in written:
            raise ConfigError(f"output path {out} would overwrite another output of the command")
        written.add(path)


def _write_text(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout when there is none."""
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


# --- subcommands ---


def cmd_impute(args: argparse.Namespace) -> int:
    data = _require(args.data, "--data")
    schema_path = _require(args.schema, "--schema")
    out = _require(args.out, "--out")
    _guard_outputs([data, schema_path, args.config], [out, args.report])

    schema = load_schema(schema_path)
    dataset = load_dataset(data, schema)
    result = impute_dataset(dataset, args.pipeline)
    write_dataset(result.dataset, out)
    if args.report is not None:
        _write_text(args.report, provenance_csv(result))
    if args.verbose:
        for fill in result.fills:
            donors = ";".join(fill.donor_ids)
            value = fill.symbol if fill.symbol is not None else format_number(fill.value)
            print(f"{fill.query_id}.{fill.attr_name} <- {value} (donor {donors})")
    print(f"imputed {len(result.values)} cells, wrote {out}")
    return EXIT_OK


def _load_queries(path: str, train_schema: Schema):
    """Query files carry the training attributes without the label
    column; an empty or header-only file means no queries."""
    text = read_text(path)
    if not text.strip():
        return None
    query_schema = Schema(train_schema.attributes, None, train_schema.missing_markers)
    return parse_dataset(text, query_schema, id_prefix="Q")


def cmd_classify(args: argparse.Namespace) -> int:
    train_path = _require(args.train, "--train")
    schema_path = _require(args.schema, "--schema")
    query_path = _require(args.query, "--query")
    _guard_outputs([train_path, schema_path, query_path, args.config], [args.out])

    schema = load_schema(schema_path)
    train = load_dataset(train_path, schema)
    queries = _load_queries(query_path, train.schema)
    # The report joins tied labels with ';', so a label holding one
    # would read as several.
    split = [rid for rid, label in zip(train.ids, train.labels) if label is not None and ";" in label]
    if split:
        raise ParseError(f"training record {split[0]} has a label holding ';', the report's label separator")

    header = ["query", "labels", "nearest"]
    if args.with_knn_baseline:
        header += ["knn_labels", "knn_nearest"]
    rows = []
    if queries is not None and len(queries) > 0:
        check_training_data(train)
        model = cluster(train, args.k, args.init)
        outcomes = classify_mapped_all(queries, train, model, args.mode)
        for i, (qid, outcome) in enumerate(zip(queries.ids, outcomes)):
            row = [qid, ";".join(outcome.labels), ";".join(outcome.nearest)]
            if args.with_knn_baseline:
                knn = classify_raw_knn(queries.records[i], train)
                row += [";".join(knn.labels), ";".join(knn.nearest)]
            rows.append(row)
            if args.verbose:
                for rid in sorted(outcome.table, key=lambda r: outcome.table[r]):
                    print(f"  {qid} vs {rid}: {outcome.table[rid]:.6f}")
    _write_text(args.out, csv_text(header, list(zip(*rows))))
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    spec_path = _require(args.config, "--config")
    spec, inputs = read_experiment_spec(spec_path)
    _guard_outputs([spec_path, *inputs], [args.out, args.summary])
    report = run_experiment(experiment_from_spec(spec, inputs))
    _write_text(args.out, report.to_json() + "\n")
    if args.summary is not None:
        _write_text(args.summary, report.summary_csv())
    return EXIT_OK


def cmd_casestudy(args: argparse.Namespace) -> int:
    _guard_outputs([args.config], [args.out])
    report = run_case_study(args.tolerance)
    text = render_report(report)
    sys.stdout.write(text)
    if args.out is not None:
        _write_text(args.out, text)
    if not report.ok:
        first = report.first_mismatch
        print(
            f"mismatch: {first.table}, {first.cell}: "
            f"computed {first.computed}, expected {first.expected}",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    return EXIT_OK


# --- options, argument parsing and dispatch ---


def _positive_tolerance(value, name: str) -> float:
    value = config_number(value, name)
    if not value > 0:  # also rejects NaN
        raise ConfigError("tolerance must be positive")
    return value


# Every run option, by its flag's dest: the check its value passes
# whether it comes from the flag, the config file or (seed only)
# CMIMPUTE_SEED (None: ImputeConfig checks it), and its default.
OPTIONS = {
    "data": (config_path, None),
    "schema": (config_path, None),
    "train": (config_path, None),
    "query": (config_path, None),
    "out": (config_path, None),
    "report": (config_path, None),
    "summary": (config_path, None),
    "seed": (config_seed, 0),
    "mode": (None, MODE_ABSOLUTE),
    "k": (None, None),
    "with_knn_baseline": (config_bool, False),
    "tolerance": (_positive_tolerance, TOLERANCE),
    "verbose": (config_bool, False),
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with flag-named keys; flags win")
    sub.add_argument("-v", "--verbose", action="store_true", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmimpute",
        description=(
            "Cluster-center mapping: impute missing cells from nearest complete "
            "donors, classify new records, benchmark, and reproduce the bundled "
            "reference tables."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("impute", help="fill missing cells in a dataset")
    p.add_argument("--data", help="CSV dataset with missing-value markers")
    p.add_argument("--schema", help="JSON schema for the dataset")
    p.add_argument("--mode", choices=sorted(MODES))
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int, help="cluster count (default: number of classes)")
    p.add_argument("--out", help="completed dataset CSV")
    p.add_argument("--report", help="provenance CSV, one row per filled cell")
    _add_common(p)
    p.set_defaults(run=cmd_impute)

    p = subparsers.add_parser("classify", help="label complete query records")
    p.add_argument("--train", help="labeled complete training CSV")
    p.add_argument("--schema", help="JSON schema for the training data")
    p.add_argument("--query", help="CSV of query records, no label column")
    p.add_argument("--mode", choices=sorted(MODES))
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--out", help="label report CSV (default: stdout)")
    p.add_argument(
        "--with-knn-baseline",
        action="store_true",
        default=None,
        help="add raw nearest-neighbor comparison columns",
    )
    _add_common(p)
    p.set_defaults(run=cmd_classify)

    p = subparsers.add_parser("evaluate", help="run a masking benchmark")
    p.add_argument("--config", help="experiment spec JSON")
    p.add_argument("--out", help="JSON report path (default: stdout)")
    p.add_argument("--summary", help="optional per-method summary CSV")
    p.set_defaults(run=cmd_evaluate)

    p = subparsers.add_parser("casestudy", help="recompute the reference tables")
    p.add_argument("--tolerance", type=float)
    p.add_argument("--out", help="write the diff report here as well as stdout")
    p.add_argument("--config", help="JSON file with flag-named keys; flags win")
    p.set_defaults(run=cmd_casestudy)

    return parser


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """The options the subcommand takes, each from its flag, else the
    run config file, else (seed only) CMIMPUTE_SEED, else its default;
    a JSON null leaves an option unset.  Runs that take a seed also get
    the init policy (config file only) and their ImputeConfig, which
    checks mode, k and init.  The --config path is kept as an input of
    the run; evaluate's names an experiment spec, not a run config."""
    config = {} if args.command == "evaluate" else _load_run_config(args.config)
    resolved = argparse.Namespace(config=args.config)
    for key in [key for key in OPTIONS if hasattr(args, key)]:
        check, default = OPTIONS[key]
        value = getattr(args, key)
        if value is None:
            value = config.get(key)
        if value is None and key == "seed":
            value = _env_seed()
        setattr(resolved, key, default if value is None else check(value, key) if check else value)
    if hasattr(args, "seed"):
        resolved.init = _init_from_config(config.get("init"), resolved.seed)
        resolved.pipeline = ImputeConfig(resolved.mode, resolved.k, resolved.init)
    return resolved


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of the process: parsing does
    not change it, and building it costs far more than a parse."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(_resolve(args))
    except (ParseError, SchemaError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except CannotClassifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNLABELED
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
