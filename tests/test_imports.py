"""Every name a library module imports is used there or re-exported, and
only the classes that need it are dataclasses: the value records are
immutable named tuples, which cost less to define at start-up."""

import ast
import importlib
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


# A frozen dataclass generates its methods as source and execs them at
# every import, which byte-code caching cannot keep: a four-field class
# took 0.58 ms to define against 0.08 ms as a named tuple (Python 3.11,
# best of seven timeit runs), and 32 dataclasses took 31 of the 44 ms of
# `import islab, islab.corpus, islab.cli` (median of seven fresh
# interpreters, timed inside `dataclasses._process_class`); the 14 kept
# take 14 of 32 ms.  Each class kept says why in a comment in its module.
KEPT_DATACLASSES = {
    "islab.arcs": {"Arc", "SegmentDecomposition"},
    "islab.blocks": {"BlockSpec", "JointSpec"},
    "islab.corpus": {"ExampleBundle"},
    "islab.grammar": {"Cfg", "CnfGrammar", "GnfGrammar"},
    "islab.pda": {"Pda", "StackAction", "Transition"},
    "islab.products": {"BufferedState", "DisplacedState"},
    "islab.pumping": {"Factorization"},
}

RECORDS = {
    "islab.arcs": [
        "CrossingAnalysis", "CrossingMeasures", "CrossingPair", "EvidenceRow",
        "Matching", "PairAnalysis", "RegimeReport",
    ],
    "islab.blocks": ["LinkagePackage", "Verdict", "Violation"],
    "islab.grammar": ["Production"],
    "islab.pda": ["AcceptingRun", "Configuration", "RunStep", "SearchLimits"],
    "islab.pumping": ["Counterexample", "HypothesesReport", "LinkageReport"],
}


def test_only_the_kept_classes_are_dataclasses():
    found = {}
    for path in SOURCES:
        module = importlib.import_module(f"islab.{path.stem}")
        names = {
            name
            for name, value in vars(module).items()
            if isinstance(value, type)
            and value.__module__ == module.__name__
            and "__dataclass_fields__" in vars(value)
        }
        if names:
            found[module.__name__] = names
    assert found == KEPT_DATACLASSES, (
        "every frozen dataclass execs its generated methods at each import, "
        "adding about half a millisecond to the start-up of every command; make "
        "a value record a NamedTuple, or say in its module why it stays a dataclass"
    )


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
