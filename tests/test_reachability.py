"""Every top-level definition of the package is reached from the command line.

The walk starts at `cli.main` and at each module-level statement that is not
a definition or an import, since those run on import.  It follows name
references: a bare name resolves to the definition of that name in its own
module or to the one its module imports under that name, and `module.name`
resolves through a module alias.  A reached function or class is walked in
turn, its whole body with decorators and annotations.  A local variable that
shares a definition's name counts as a reference, so the walk can only err
towards "reached".  `__init__.py` only re-exports and is left out.
"""

import ast
from pathlib import Path

import poisson_strata

PACKAGE = Path(poisson_strata.__file__).parent


def unreached_definitions() -> list[str]:
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    definitions = {}  # (module, name) -> node
    bindings = {}  # module -> {local name: (module, name), or a module's name}
    work = []  # (module, node) still to walk
    for module, tree in trees.items():
        local = bindings[module] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = alias.name if node.module is None else (node.module, alias.name)
                    local[alias.asname or alias.name] = target
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[(module, node.name)] = node
                local[node.name] = (module, node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                work.append((module, node))
    work.append(("cli", definitions[("cli", "main")]))

    def resolve(module: str, name: str):
        seen = set()
        while (module, name) not in definitions and (module, name) not in seen:
            seen.add((module, name))
            target = bindings.get(module, {}).get(name)
            if not isinstance(target, tuple):
                return None
            module, name = target
        return (module, name) if (module, name) in definitions else None

    reached = {("cli", "main")}
    while work:
        module, node = work.pop()
        for sub in ast.walk(node):
            key = None
            if isinstance(sub, ast.Name):
                key = resolve(module, sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                alias = bindings[module].get(sub.value.id)
                if isinstance(alias, str):
                    key = resolve(alias, sub.attr)
            if key is not None and key not in reached:
                reached.add(key)
                work.append((key[0], definitions[key]))
    return sorted(f"{module}.{name}" for module, name in definitions.keys() - reached)


def test_every_definition_is_reached_from_the_command_line():
    assert unreached_definitions() == []
