"""Every name a library module imports is used there or re-exported, the
start-up imports no `dataclasses`, and the value records are immutable
named tuples, which cost less to define at start-up."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import islab

SOURCES = sorted(Path(islab.__file__).resolve().parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used | exported
    )


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_unused_import(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


# `import islab, islab.corpus, islab.cli` is the start-up of every command.
# Importing `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`,
# and each dataclass generates and execs its methods at every import,
# which byte-code caching cannot keep.  With 14 frozen dataclasses the
# import took 49-50 ms, of which 12 ms imported `dataclasses` and 17 ms
# generated methods; as `pda._Value` classes it takes 19-22 ms (Python
# 3.11, 2-core VM, medians of twelve fresh `python -I` interpreters).
STARTUP = """
import json, sys
before = set(sys.modules)
import islab, islab.corpus, islab.cli
print(json.dumps({
    "added": sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)),
    "dataclasses": sorted(
        f"{name}.{value.__name__}"
        for name, module in sys.modules.items()
        if name.split(".")[0] == "islab"
        for value in vars(module).values()
        if isinstance(value, type) and "__dataclass_fields__" in vars(value)
    ),
}))
"""


def test_startup_imports_no_dataclasses():
    src = str(Path(islab.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {src!r})\n{STARTUP}"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert json.loads(done.stdout) == {"added": [], "dataclasses": []}, (
        "`dataclasses` imports `inspect`, and a dataclass execs its generated "
        "methods at each import: together they took most of the start-up of "
        "every command; derive an immutable class from `pda._Value` instead"
    )


RECORDS = {
    "islab.arcs": [
        "CrossingAnalysis", "CrossingMeasures", "CrossingPair", "EvidenceRow",
        "Matching", "PairAnalysis", "RegimeReport",
    ],
    "islab.blocks": ["LinkagePackage", "Verdict", "Violation"],
    "islab.grammar": ["Production"],
    "islab.pda": ["AcceptingRun", "Configuration", "RunStep"],
    "islab.pumping": ["Counterexample", "HypothesesReport", "LinkageReport"],
}


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in RECORDS.items() for n in names]
)
def test_records_are_immutable_named_tuples(module, name):
    record = getattr(importlib.import_module(module), name)
    assert issubclass(record, tuple) and record._fields
    value = record._make([None] * len(record._fields))
    with pytest.raises(AttributeError):
        setattr(value, record._fields[0], 1)
    with pytest.raises(AttributeError):
        value.extra = 1
