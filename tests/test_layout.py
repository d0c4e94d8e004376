"""Source layout rules that no other test sees.

Every import in the package, its demos and its tests sits at module level:
a function-local import hides a dependency between modules, usually one that
points the wrong way.
No module-level name starts out as an empty container: that is what a
process-global memo looks like, and such state outlives the run it served.
The layers built on the field do not import fractions: field arithmetic runs
on integer numerators, and Fraction arithmetic above it would bring back a
normalising gcd per coefficient. No module imports dataclasses, and starting
the command loads neither it nor inspect: every run is a fresh interpreter.
Every name a module, demo or test imports is read somewhere in it. The
benchmark in ``perfbench/`` reads the package by attribute and by module name,
which no test of the package sees, so those names are checked here too.
Every function, class, non-dunder method and module-level name the package
defines at top level is read by name somewhere in the package, its demos, its
tests or the benchmark: code or a table that nothing reads is deleted, not
kept.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

from skverify import families, field, sampling

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skverify"
BENCH = ROOT / "perfbench"


def test_no_function_local_imports():
    sources = [path for folder in (PACKAGE, ROOT / "demos", ROOT / "tests")
               for path in sorted(folder.glob("*.py"))]
    assert sources, f"no sources under {ROOT}"
    found = set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                             if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert not found, f"function-local imports: {sorted(found)}"


def _is_empty_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "set", "list") and not node.args
            and not node.keywords)


def test_no_module_level_empty_containers():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                if _is_empty_container(node.value):
                    found.add(f"{path.name}:{node.lineno}")
    assert not found, f"module-level empty containers: {sorted(found)}"


FRACTION_FREE = ("linalg", "graded", "heisenberg", "freealg", "veronese")


def _imports_of(paths, module: str) -> set[str]:
    """The import statements in ``paths`` that import ``module``, as file:line."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == module for m in mods):
                found.add(f"{path.name}:{node.lineno}")
    return found


def test_hot_layers_do_not_import_fractions():
    found = _imports_of([PACKAGE / f"{name}.py" for name in FRACTION_FREE], "fractions")
    assert not found, f"fractions imported by a hot layer: {sorted(found)}"


def test_package_does_not_import_dataclasses():
    # records are NamedTuples: dataclasses (with the inspect, ast and dis it
    # pulls in) and its per-class code generation cost every run at start-up
    found = _imports_of(sorted(PACKAGE.glob("*.py")), "dataclasses")
    assert not found, f"dataclasses imported by the package: {sorted(found)}"


def test_command_start_up_leaves_dataclasses_and_inspect_unloaded():
    code = ("import sys, skverify.cli; skverify.cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _unused_imports(tree) -> set[str]:
    """Names bound by an import in ``tree`` and never read in it.

    With ``from __future__ import annotations`` an annotation is a string at
    run time but still an AST expression here, so it counts as a read.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {f"{name}:{line}" for name, line in bound.items() if name not in read}


def test_no_unused_imports():
    sources = [path for folder in (PACKAGE, ROOT / "demos", ROOT / "tests")
               for path in sorted(folder.glob("*.py"))]
    found = set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.update(f"{path.name}:{u}" for u in _unused_imports(tree))
    assert not found, f"imported and never read: {sorted(found)}"


def _definitions(tree) -> dict[str, int]:
    """Top-level functions, classes and assigned names of ``tree`` and the
    methods of its classes, by name; dunders excepted."""
    found = {}
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for fn in [node, *members]:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found[fn.name] = fn.lineno
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        found.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return {name: line for name, line in found.items()
            if not (name.startswith("__") and name.endswith("__"))}


def test_every_definition_is_read():
    read = set()
    for folder in (ROOT / "src", ROOT / "demos", ROOT / "tests", BENCH):
        for path in sorted(folder.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.update(f"{path.name}:{line} {name}"
                     for name, line in _definitions(tree).items() if name not in read)
    assert not found, f"defined and never read: {sorted(found)}"


def test_benchmark_reads_only_existing_names():
    modules = {"families": families, "field": field, "sampling": sampling}
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert read, "run.py reads no package attribute"
    missing = sorted(f"{mod}.{attr}" for mod, attr in read
                     if not hasattr(modules[mod], attr))
    assert not missing, f"perfbench/run.py reads missing names: {missing}"
    tracer = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tracer.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    for layer in layers:
        importlib.import_module(f"skverify.{layer}")
