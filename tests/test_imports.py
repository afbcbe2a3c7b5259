"""Every name a program module imports is used in that module, and every
name the benchmark's tracer wraps is still bound where it looks for it.

``__init__.py`` is skipped: its imports are the package's public names.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import gridsplit

MODULES = sorted(p for p in Path(gridsplit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in
            sorted((line, name) for name, line in bound.items())
            if name not in used]


def test_the_scan_sees_the_package():
    assert {p.name for p in MODULES} >= {"milp.py", "formation.py", "cli.py"}


def test_the_scan_flags_an_unused_name():
    src = ("from __future__ import annotations\nimport os, sys as system\n"
           "from a.b import c, d\nprint(os.sep, d)\n")
    assert unused_imports(src) == ["line 2: system", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_traced_name_resolves():
    # perfbench/tracer.py replaces each (module, attribute) of WRAPS with a
    # wrapper; a module that stops binding one of them breaks the benchmark
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{owner}.{attr}" for owner, attr, _, _ in tracer.WRAPS
               if not hasattr(tracer.resolve(owner), attr)]
    assert tracer.WRAPS
    assert missing == []
