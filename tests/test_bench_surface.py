"""Every lbvt name the benchmark under bench/ uses exists, so the library cannot drop one.

The benchmark wraps the functions in bench/tracing.py:TRACED by name and calls
lbvt functions from its workloads; a deleted or renamed entry would break
bench/run.py only when it runs. These tests read bench/ and never change it.
"""

import ast
import importlib
import importlib.util
import pathlib
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _import_from(module, name):
    """What `from module import name` binds: an attribute, else a submodule, else None."""
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module.__name__}.{name}")
    except ImportError:
        return None


def _bench_names(path):
    """(module, attribute, called) for each attribute the file reads off an lbvt module."""
    tree = ast.parse(path.read_text())
    modules = {}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "lbvt":
                    modules[alias.asname or "lbvt"] = importlib.import_module("lbvt")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lbvt":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = _import_from(module, alias.name)
                names.append((module, alias.name, False))
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.append((modules[node.value.id], node.attr, id(node) in called))
    return names


def test_bench_reads_only_existing_lbvt_names():
    missing = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        for module, attr, called in _bench_names(path):
            value = getattr(module, attr, None)
            if value is None or (called and not callable(value)):
                missing.append(f"{path.name}: {module.__name__}.{attr}")
    assert missing == []


def test_traced_entries_exist_and_are_callable():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [f"{module.__name__}.{name}" for module, name in tracing.TRACED
               if not callable(getattr(module, name, None))]
    assert missing == []
