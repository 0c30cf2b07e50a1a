"""Every top-level definition of the package, and every member of a reached
class, is reached from the command line.

The walk starts at `cli.main` and at each module-level statement that is not
a definition or an import, since those run on import.  It follows name
references: a bare name resolves to the definition of that name in its own
module or to the one its module imports under that name, and `module.name`
resolves through a module alias.  A reached function is walked in turn, its
whole body with decorators and annotations.  A reached class is walked by
its decorators and bases, and its members one by one: the methods and
properties it defines, its dataclass fields and the names it binds in its
body (aliases such as `n = TermMap.owner`).  A member is reached when reached
code reads its name as an attribute of anything, or the class body binds it
to another reached member by bare name (`_inverse = monomial_inverse`); a
dunder, which the interpreter calls, and a member that overrides one of a
base class (`_ArgumentParser.error`) are reached with their class.  A
reached member is walked like a function.  A local variable that shares a
definition's name counts as a reference, and an attribute read counts for
every member of that name, so the walk can only err towards "reached".
`__init__.py` only re-exports and is left out.
"""

import ast
import importlib
from pathlib import Path

import poisson_strata

PACKAGE = Path(poisson_strata.__file__).parent


def _members(node: ast.ClassDef) -> dict[str, list[ast.stmt]]:
    """The statements of a class body that bind each member name."""
    members: dict[str, list[ast.stmt]] = {}
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef):
            names = [stmt.name]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            members.setdefault(name, []).append(stmt)
    return members


def _inherited(module: str, cls: str, name: str) -> bool:
    """Whether a base class of the runtime class defines `name`."""
    runtime = getattr(importlib.import_module(f"poisson_strata.{module}"), cls)
    return any(name in vars(base) for base in runtime.__mro__[1:])


def unreached_definitions() -> list[str]:
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    definitions = {}  # (module, name) -> node
    bindings = {}  # module -> {local name: (module, name), or a module's name}
    work = []  # (module, class or None, node) still to walk
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
                work.append((module, None, node))

    def resolve(module: str, name: str):
        seen = set()
        while (module, name) not in definitions and (module, name) not in seen:
            seen.add((module, name))
            target = bindings.get(module, {}).get(name)
            if not isinstance(target, tuple):
                return None
            module, name = target
        return (module, name) if (module, name) in definitions else None

    reached = set()
    members = {}  # (module, class) -> {member name: statements}
    waiting = {}  # member name -> [(module, class)] of reached classes
    attributes = set()  # names read as attributes by reached code

    def reach(key):
        if key in reached:
            return
        reached.add(key)
        node = definitions[key]
        if not isinstance(node, ast.ClassDef):
            work.append((key[0], None, node))
            return
        work.extend((key[0], None, part) for part in (*node.decorator_list, *node.bases, *node.keywords))
        own = members[key] = _members(node)
        for name in own:
            if (name.startswith("__") and name.endswith("__")) or name in attributes or _inherited(*key, name):
                reach_member(key, name)
            else:
                waiting.setdefault(name, []).append(key)

    def reach_member(owner, name):
        key = (owner[0], f"{owner[1]}.{name}")
        if key not in reached:
            reached.add(key)
            work.extend((owner[0], owner[1], stmt) for stmt in members[owner][name])

    reach(("cli", "main"))
    while work:
        module, cls, node = work.pop()
        for sub in ast.walk(node):
            key = None
            if isinstance(sub, ast.Name):
                if cls is not None and sub.id in members[(module, cls)]:
                    reach_member((module, cls), sub.id)
                key = resolve(module, sub.id)
            elif isinstance(sub, ast.Attribute):
                if isinstance(sub.ctx, ast.Load) and sub.attr not in attributes:
                    attributes.add(sub.attr)
                    for owner in waiting.pop(sub.attr, ()):
                        reach_member(owner, sub.attr)
                if isinstance(sub.value, ast.Name):
                    alias = bindings[module].get(sub.value.id)
                    if isinstance(alias, str):
                        key = resolve(alias, sub.attr)
            if key is not None:
                reach(key)
    everything = set(definitions)
    for (module, cls), own in members.items():
        everything |= {(module, f"{cls}.{name}") for name in own}
    return sorted(f"{module}.{name}" for module, name in everything - reached)


def test_every_definition_is_reached_from_the_command_line():
    assert unreached_definitions() == []
