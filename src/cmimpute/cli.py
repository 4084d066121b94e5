"""Batch command line front end.

Four subcommands: ``impute`` fills missing cells and writes the
completed dataset back in its original representation, ``classify``
labels complete query records against a labeled training table,
``evaluate`` runs the masking benchmark, and ``casestudy`` recomputes
the bundled reference tables and diffs them.

Every flag has a config-file equivalent (``--config run.json`` with
keys named after the flags); flags win on conflict.  The default seed
can also come from the ``CMIMPUTE_SEED`` environment variable.

Exit codes: 0 success, 1 internal error, 2 parse/schema/config error
or a path that cannot be read or written, 3 insufficient data,
4 unlabeled training data, 5 case-study mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .casestudy import render_report, run_case_study
from .classify import check_training_data, classify_mapped_all, classify_raw_knn
from .dataset import (
    Schema,
    decode_dataset,
    encode,
    load_dataset,
    load_schema,
    parse_dataset,
    read_text,
    write_dataset,
)
from .errors import (
    CannotClassifyError,
    ConfigError,
    InsufficientDataError,
    ParseError,
    SchemaError,
    config_integer,
    config_path,
    config_seed,
)
from .evaluate import load_experiment_config, run_experiment
from .impute import MODE_ABSOLUTE, MODES, ImputeConfig, impute_dataset, provenance_csv
from .kmeans import FarthestFirst, FixedPartition, SeededRandom, cluster

SEED_ENV_VAR = "CMIMPUTE_SEED"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_INSUFFICIENT = 3
EXIT_UNLABELED = 4
EXIT_MISMATCH = 5


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: flags merged over config-file values
    merged over environment and built-in defaults."""

    data: str | None = None
    schema: str | None = None
    train: str | None = None
    query: str | None = None
    mode: str = MODE_ABSOLUTE
    seed: int = 0
    k: int | None = None
    init: object | None = None
    out: str | None = None
    report: str | None = None
    summary: str | None = None
    with_knn_baseline: bool = False
    tolerance: float = 1e-5
    verbose: bool = False


def _load_run_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return raw


def _pick(flag_value, config: dict, key: str, default):
    """Flags win, then the config file, then the default."""
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


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


def _resolve_seed(flag_value, config: dict) -> int:
    seed = _pick(flag_value, config, "seed", None)
    if seed is None:
        seed = _env_seed()
    if seed is None:
        seed = 0
    return config_seed(seed, "seed")


def _resolve_k(flag_value, config: dict) -> int | None:
    k = _pick(flag_value, config, "k", None)
    if k is not None and config_integer(k, "k") < 1:
        raise ConfigError(f"k must be positive, got {k}")
    return k


def _init_from_config(value, seed: int):
    """Build a clustering init policy from its config-file form."""
    if value is None:
        return None
    if not isinstance(value, dict) or "policy" not in value:
        raise ConfigError("init must be an object with a 'policy' key")
    policy = value["policy"]
    if policy == "fixed-partition":
        groups = value.get("groups")
        if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
            raise ConfigError("fixed-partition init needs 'groups': a list of id lists")
        return FixedPartition(tuple(tuple(str(i) for i in g) for g in groups))
    if policy == "farthest-first":
        return FarthestFirst(config_seed(value.get("seed", seed), "init seed"))
    if policy == "seeded-random":
        return SeededRandom(config_seed(value.get("seed", seed), "init seed"))
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


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


# --- subcommands ---


def cmd_impute(config: RunConfig) -> int:
    data = _require(config.data, "--data")
    schema_path = _require(config.schema, "--schema")
    out = _require(config.out, "--out")
    _guard_outputs([data, schema_path], [out, config.report])

    schema = load_schema(schema_path)
    dataset = encode(load_dataset(data, schema))
    result = impute_dataset(
        dataset,
        ImputeConfig(mode=config.mode, k=config.k, init=config.init, seed=config.seed),
    )
    write_dataset(decode_dataset(result.dataset), out)
    if config.report is not None:
        _write_text(config.report, provenance_csv(result))
    if config.verbose:
        for fill in result.fills:
            donors = ";".join(fill.donor_ids)
            value = fill.symbol if fill.symbol is not None else f"{fill.value:g}"
            print(f"{fill.query_id}.{fill.attr_name} <- {value} (donor {donors})")
    print(f"imputed {len(result.values)} cells, wrote {out}")
    return EXIT_OK


def _load_queries(path: str, train_schema: Schema):
    """Query files carry the training attributes without the label
    column; an empty or header-only file means no queries."""
    text = read_text(path)
    if not text.strip():
        return None
    query_schema = Schema(
        train_schema.attributes,
        label_column=None,
        missing_markers=train_schema.missing_markers,
    )
    queries = encode(parse_dataset(text, query_schema, id_prefix="Q"))
    holed = np.isnan(queries.matrix).any(axis=1)
    if holed.any():
        raise ParseError(f"query record {queries.ids[int(holed.argmax())]} has missing cells")
    return queries


def cmd_classify(config: RunConfig) -> int:
    train_path = _require(config.train, "--train")
    schema_path = _require(config.schema, "--schema")
    query_path = _require(config.query, "--query")
    _guard_outputs([train_path, schema_path, query_path], [config.out])

    schema = load_schema(schema_path)
    train = encode(load_dataset(train_path, schema))
    queries = _load_queries(query_path, train.schema)

    header = ["query", "labels", "nearest"]
    if config.with_knn_baseline:
        header += ["knn_labels", "knn_nearest"]
    lines = [",".join(header)]
    if queries is not None and len(queries) > 0:
        check_training_data(train)
        k = config.k if config.k is not None else train.n_classes
        init = config.init if config.init is not None else FarthestFirst(config.seed)
        model = cluster(train, k, init)
        outcomes = classify_mapped_all(queries, train, model, config.mode)
        for i, (qid, outcome) in enumerate(zip(queries.ids, outcomes)):
            row = [qid, ";".join(outcome.labels), ";".join(outcome.nearest)]
            if config.with_knn_baseline:
                knn = classify_raw_knn(queries.records[i], train)
                row += [";".join(knn.labels), ";".join(knn.nearest)]
            lines.append(",".join(row))
            if config.verbose:
                for rid in sorted(outcome.table, key=lambda r: outcome.table[r]):
                    print(f"  {qid} vs {rid}: {outcome.table[rid]:.6f}")
    report = "\n".join(lines) + "\n"
    if config.out is not None:
        _write_text(config.out, report)
    else:
        sys.stdout.write(report)
    return EXIT_OK


def cmd_evaluate(config: RunConfig) -> int:
    spec_path = _require(config.data, "--config")
    _guard_outputs([spec_path], [config.out, config.summary])
    experiment = load_experiment_config(spec_path)
    report = run_experiment(experiment)
    text = report.to_json() + "\n"
    if config.out is not None:
        _write_text(config.out, text)
    else:
        sys.stdout.write(text)
    if config.summary is not None:
        _write_text(config.summary, report.summary_csv())
    return EXIT_OK


def cmd_casestudy(config: RunConfig) -> int:
    report = run_case_study(config.tolerance)
    text = render_report(report)
    sys.stdout.write(text)
    if config.out is not None:
        _write_text(config.out, text)
    if not report.ok:
        first = report.first_mismatch
        print(
            f"mismatch: {first.table}, {first.cell}: "
            f"computed {first.computed}, expected {first.expected}",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    return EXIT_OK


# --- argument parsing and dispatch ---


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
    p.set_defaults(resolve=_resolve, run=cmd_impute)

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
    p.set_defaults(resolve=_resolve, run=cmd_classify)

    p = subparsers.add_parser("evaluate", help="run a masking benchmark")
    p.add_argument("--config", help="experiment spec JSON", dest="config")
    p.add_argument("--out", help="JSON report path (default: stdout)")
    p.add_argument("--summary", help="optional per-method summary CSV")
    p.add_argument("-v", "--verbose", action="store_true", default=None)
    p.set_defaults(resolve=_resolve_evaluate, run=cmd_evaluate)

    p = subparsers.add_parser("casestudy", help="recompute the reference tables")
    p.add_argument("--tolerance", type=float)
    p.add_argument("--out", help="write the diff report here as well as stdout")
    _add_common(p)
    p.set_defaults(resolve=_resolve, run=cmd_casestudy)

    return parser


# Options that name a file; a config file must give each as a string.
PATH_OPTIONS = ("data", "schema", "train", "query", "out", "report")


def _resolve(args: argparse.Namespace) -> RunConfig:
    """The options of an impute, classify or casestudy run, each from
    its flag, else the config file, else (seed only) CMIMPUTE_SEED,
    else its default.  A subcommand resolves only the options it
    takes."""
    config = _load_run_config(args.config)
    flags = vars(args)
    options = {}
    for key in PATH_OPTIONS:
        if key in flags:
            path = options[key] = _pick(flags[key], config, key, None)
            if path is not None:
                config_path(path, key)
    if "seed" in flags:
        seed = _resolve_seed(args.seed, config)
        mode = _pick(args.mode, config, "mode", MODE_ABSOLUTE)
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {sorted(MODES)}, got {mode!r}")
        options.update(
            mode=mode,
            seed=seed,
            k=_resolve_k(args.k, config),
            init=_init_from_config(config.get("init"), seed),
        )
    if "with_knn_baseline" in flags:
        options["with_knn_baseline"] = bool(
            _pick(args.with_knn_baseline, config, "with_knn_baseline", False)
        )
    if "tolerance" in flags:
        tolerance = _pick(args.tolerance, config, "tolerance", 1e-5)
        try:
            tolerance = float(tolerance)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"tolerance must be a number, got {tolerance!r}") from None
        if not tolerance > 0:  # also rejects NaN
            raise ConfigError("tolerance must be positive")
        options["tolerance"] = tolerance
    return RunConfig(
        verbose=bool(_pick(args.verbose, config, "verbose", False)),
        **options,
    )


def _resolve_evaluate(args: argparse.Namespace) -> RunConfig:
    if args.config is None:
        raise ConfigError("missing required option --config")
    return RunConfig(
        data=args.config,
        out=args.out,
        summary=args.summary,
        verbose=bool(args.verbose),
    )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of the process: parsing does
    not change it, and building it costs far more than a parse."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = args.resolve(args)
        return args.run(config)
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
