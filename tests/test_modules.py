"""Module boundaries inside the package: a module reaches another only through its public names, and none
imports numpy when it is imported."""

import ast
from pathlib import Path

import ueslab

PACKAGE = Path(ueslab.__file__).resolve().parent


def test_no_module_imports_a_private_name_from_a_sibling():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("ueslab")):
                private += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_no_module_binds_an_import_it_never_uses():
    # a name bound by a module-level import must be read somewhere in its module; `# noqa` marks a deliberate one
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports its imports
            continue
        source = path.read_text(encoding="utf-8")
        lines, tree = source.splitlines(), ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}: {name}")
    assert unused == []


def _run_at_import(node):
    """The nodes under node that run when the module is imported: all but those inside a function's body."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _run_at_import(child)


def test_no_module_imports_numpy_at_module_level():
    # `run`, `sweep` and `lemma-check` need only the standard library; the test oracles import numpy in their bodies
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _run_at_import(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [f"{path.name}: import {alias.name}" for alias in node.names if alias.name.split(".")[0] == "numpy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                found.append(f"{path.name}: from {node.module} import ...")
    assert found == []


def test_cli_maps_a_config_error_to_its_exit_code_in_main_alone():
    # a verb raises ConfigError and `main` turns it into exit 2, so no other function of cli reads EXIT_CONFIG
    readers = []
    for node in ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and node.name == "main":
            continue
        readers += [f"{getattr(node, 'name', type(node).__name__)}: line {name.lineno}" for name in ast.walk(node)
                    if isinstance(name, ast.Name) and name.id == "EXIT_CONFIG" and isinstance(name.ctx, ast.Load)]
    assert readers == []


def test_map_config_keys_live_in_the_maps_table_alone():
    # maps.MAPS names each map's config keys; any other module names only map.name, so a new map is one row there
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "maps.py":
            continue
        found += [f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.startswith("map.") and not node.value.startswith("map.name")]
    assert found == []
