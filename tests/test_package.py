"""What the package exposes, and the README's Python blocks run as
written."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import cmimpute
import cmimpute.classify
import cmimpute.cli
from cmimpute.casestudy import fixture_text
from cmimpute.evaluate import make_synthetic_dataset
from cmimpute.kmeans import FarthestFirst, cluster

MODULES = ("classify", "dataset", "errors", "evaluate", "impute", "kmeans", "mapping")
README = Path(__file__).resolve().parents[1] / "README.md"

# Per fenced python block of the README, in order: each file the block
# reads, as the bundled fixture written under that name.
README_BLOCK_FILES = (
    {"schema.json": "schema_missing.json", "data.csv": "table03_missing_raw.csv"},
    {"schema.json": "schema_classification.json", "train.csv": "table16_classification.csv"},
)


def test_importing_the_package_loads_exactly_its_modules():
    probe = "import sys, cmimpute; print(' '.join(sorted(m for m in sys.modules if m.startswith('cmimpute'))))"
    package_root = os.path.dirname(os.path.dirname(cmimpute.__file__))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=package_root),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split() == ["cmimpute", *(f"cmimpute.{name}" for name in MODULES)]


def test_importing_the_package_and_its_cli_loads_no_dataclasses():
    probe = "import sys, cmimpute, cmimpute.cli; print('dataclasses' in sys.modules)"
    package_root = os.path.dirname(os.path.dirname(cmimpute.__file__))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=package_root),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split() == ["False"]
    modules = [importlib.import_module(f"cmimpute.{name}") for name in (*MODULES, "casestudy", "cli")]
    classes = [v for m in modules for v in vars(m).values() if isinstance(v, type) and v.__module__ == m.__name__]
    assert len(classes) >= 22  # the record, config and result types among them
    assert [c.__name__ for c in classes if hasattr(c, "__dataclass_fields__")] == []


def test_the_package_binds_no_public_name_but_its_modules():
    public = {name for name in vars(cmimpute) if not name.startswith("_")}
    # Importing a submodule binds it too (the test suite imports cli and
    # casestudy), so only modules of the package may appear.
    assert set(MODULES) <= public
    assert all(getattr(cmimpute, name).__name__ == f"cmimpute.{name}" for name in public)
    assert not hasattr(cmimpute, "__version__")  # pyproject.toml holds the version


def readme_python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)


def test_every_private_module_level_name_is_used_elsewhere_in_the_package():
    # A helper left behind by a refactor is defined but never read.  A
    # name counts as read when any other module-level statement of the
    # package loads it or reads an attribute of that name.
    defined, reads = {}, Counter()
    for path in sorted(Path(cmimpute.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                own = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            else:
                own = set()
            defined.update((name, f"{path.name}:{name}") for name in own if re.fullmatch(r"_(?!_)\w*", name))
            nodes = list(ast.walk(stmt))
            loads = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            reads.update((loads | {n.attr for n in nodes if isinstance(n, ast.Attribute)}) - own)
    assert defined
    assert sorted(where for name, where in defined.items() if not reads[name]) == []


def test_no_module_calls_the_encode_and_decode_shims():
    # parse_dataset stores ordinals and dataset_to_csv writes symbols, so
    # dataset.encode and dataset.decode_dataset are identities kept only
    # for the benchmark: no module imports them or calls them through
    # the dataset module, and dataset.py does not call them itself.
    shims = {"encode", "decode_dataset"}
    found = []
    for path in sorted(Path(cmimpute.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("dataset", "cmimpute.dataset"):
                found += [f"{path.name}: imports {a.name}" for a in node.names if a.name in shims]
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                    called = func.attr if func.value.id == "dataset" else None
                else:
                    called = func.id if isinstance(func, ast.Name) and path.name == "dataset.py" else None
                if called in shims:
                    found.append(f"{path.name}:{node.lineno}: calls {called}")
    assert found == []


def test_each_pipeline_option_is_checked_in_one_place():
    # impute.check_mode checks the selection mode, and kmeans.check_clustering
    # k and the init policy; ImputeConfig and cluster call them, and the
    # CLI hands its options to ImputeConfig with no check of its own.
    package = Path(cmimpute.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    for text, owner in (("mode must be one of", "impute.py"), ("k must be positive", "kmeans.py")):
        assert [name for name, source in sources.items() for _ in range(source.count(text))] == [owner], text
    cli = ast.parse(sources["cli.py"])
    defined = {node.name for node in ast.walk(cli) if isinstance(node, ast.FunctionDef)}
    assert defined & {"_mode", "_positive_k"} == set()
    strings = [node.value for node in ast.walk(cli) if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert [s for s in strings if "init seed" in s or "must be one of" in s or s.startswith("k must")] == []
    assert [cmimpute.cli.OPTIONS[key][0] for key in ("mode", "k")] == [None, None]


def test_each_classifier_input_is_checked_in_one_place():
    # classify_mapped_all refuses a query with a missing cell, in the
    # words the CLI prints, so the CLI checks no query matrix itself;
    # mapping.check_model alone checks a model against the data, called
    # where a model enters (build_mapping and the fit's model slot), so
    # no mapping value is checked again; every refusal is a typed error;
    # and the fit keeps one model slot, not a table of models.
    package = Path(cmimpute.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    cli = list(ast.walk(ast.parse(sources["cli.py"])))
    imported = [a.name for node in cli if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names]
    imported += [node.module for node in cli if isinstance(node, ast.ImportFrom)]
    assert [name for name in imported if name and name.split(".")[0] == "numpy"] == []
    assert [node for node in cli if isinstance(node, ast.Attribute) and node.attr == "isnan"] == []
    assert [node for node in cli if isinstance(node, ast.Name) and node.id == "isnan"] == []
    for text, owner in (('"query record {', "classify.py"), ("the model's centroids", "mapping.py")):
        assert [name for name, source in sources.items() if text in source] == [owner], text
    assert not hasattr(cmimpute.mapping, "check_map_value")
    callers = [
        f"{name}:{function.name}"
        for name, source in sources.items()
        for function in ast.walk(ast.parse(source))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and "check_model" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert sorted(callers) == ["classify.py:mapping", "mapping.py:build_mapping"]
    assert [name for name in ("classify.py", "mapping.py") if "raise ValueError(" in sources[name]] == []
    training = make_synthetic_dataset(12, seed=3)
    for k in (2, 3, 2):
        cmimpute.classify.classify_mapped_all(training, training, cluster(training, k, FarthestFirst(0)))
    fit = training._memo[cmimpute.classify._Fit]
    assert [name for name, value in vars(fit).items() if isinstance(value, dict) and value is not fit.rows] == []


def test_the_package_has_one_donor_search():
    # impute._select_all is the only donor search: it bisects the sorted
    # donor arrays itself, so no module imports bisect and no list mirror
    # of the sorted values or second search exists.
    package = Path(cmimpute.__file__).parent
    imports = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(alias.name == "bisect" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "bisect"
    ]
    assert imports == []
    assert not hasattr(cmimpute.mapping.MappingTable, "sorted_donors")
    assert not hasattr(cmimpute.impute, "_nearest_rows")


def test_the_package_has_one_nearest_row_search():
    # mapping.nearest_rows is the only full-dimensional 1-NN search: the
    # raw-kNN classifier and the raw-kNN donor baseline call it, and the
    # baseline no longer runs the kernel over every complete row itself.
    package = Path(cmimpute.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    callers = {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "nearest_rows" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert sorted(callers) == ["classify.py", "evaluate.py"]
    names = {alias.name for node in ast.walk(trees["evaluate.py"]) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "nearest_rows" in names and "squared_distances" not in names


def test_the_spec_reader_declares_no_experiment_option_default():
    # Each experiment option's default is declared once, in the signature
    # of ExperimentConfig.__init__: experiment_from_spec passes a spec's
    # option keys through and gives no .get() a default for one of them.
    tree = ast.parse((Path(cmimpute.__file__).parent / "evaluate.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in ast.walk(tree) if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    init = next(n for n in defs["ExperimentConfig"].body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    options = {arg.arg for arg in init.args.args[2:]}
    assert options >= {"methods", "rates", "plan"}
    found = [
        f"evaluate.py:{node.lineno}: .get({node.args[0].value!r}, ...)"
        for node in ast.walk(defs["experiment_from_spec"])
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and len(node.args) == 2
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value in options
    ]
    assert found == []


def test_no_module_splits_a_matrix_into_columns_for_a_dataset():
    # A dataset stores one (m, n) matrix, so no module reads a
    # `columns` attribute, hands a `Dataset(...)` a transposed matrix,
    # or stacks columns back into one outside dataset.py.
    found = []
    for path in sorted(Path(cmimpute.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "columns":
                found.append(f"{path.name}:{node.lineno}: reads .columns")
            elif isinstance(node, ast.Attribute) and node.attr == "column_stack" and path.name != "dataset.py":
                found.append(f"{path.name}:{node.lineno}: calls column_stack")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Dataset":
                matrix = [*node.args, *(k.value for k in node.keywords if k.arg == "matrix")][3:4]
                if matrix and isinstance(matrix[0], ast.Attribute) and matrix[0].attr == "T":
                    found.append(f"{path.name}:{node.lineno}: passes a transposed matrix")
    assert found == []


def test_readme_names_no_deleted_function():
    # Each backticked private name (`_select_all`) or module member
    # (`impute._class_value`, `dataset.records`) of the README must be
    # defined somewhere in the package: as a function, class or method,
    # or as an assigned name.
    defined = set()
    for path in Path(cmimpute.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
    named = set()
    for span in re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8")):
        if match := re.fullmatch(r"(_(?!_)\w+)(\(.*\))?", span):
            named.add(match[1])
        elif (match := re.fullmatch(r"(\w+)\.(\w+)(\(.*\))?", span)) and match[1] in (*MODULES, "casestudy", "cli"):
            named.add(match[2])
    assert {"_select_all", "_class_value", "squared_distances"} <= named
    assert sorted(named - defined) == []


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = readme_python_blocks()
    assert len(blocks) == len(README_BLOCK_FILES)
    for i, (block, files) in enumerate(zip(blocks, README_BLOCK_FILES)):
        workdir = tmp_path / f"block{i}"
        workdir.mkdir()
        for name, fixture in files.items():
            (workdir / name).write_text(fixture_text(fixture), encoding="utf-8")
        monkeypatch.chdir(workdir)
        exec(compile(block, f"{README.name} python block {i + 1}", "exec"), {"__name__": "__readme__"})
    assert (tmp_path / "block0" / "completed.csv").exists()
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == "('Level-1',) ('R2',)"
