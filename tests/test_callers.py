"""Every top-level function and class of the package, and every method of
such a class, has a caller outside the tests, and every parameter with a
default is passed by one.

A name counts as used when it appears as a whole word in ``src/``,
``scripts/`` or ``perfbench/`` anywhere but its own definition, strings
included, so the names in ``perfbench/tracer.py``'s tables count.  A method
counts as used when those files read it as an attribute (``.name``) or name
it in a string, outside its own definition; dunder methods, which Python
calls, are exempt.  The package's ``__init__.py`` re-exports names without
calling them, so it is neither checked nor searched.

A parameter with a default, of a top-level function or of a method of a
top-level class, counts as passed when a call in those directories to a
function of its name (for ``__init__``, of its class's name) names it as a
keyword or reaches its position.  Calls are matched by name alone, so a
call of another function of the same name counts too: a keyword that numpy
calls share, such as ``keepdims`` of ``x.sum(axis=-1, keepdims=True)``,
looks passed to ``Tensor.sum`` whether or not a caller passes it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "scripts", "perfbench")


def _definitions(root: Path):
    """(qualified name, pattern of a use, defining file, definition node) for
    each top-level def or class of ``root``'s package and each method, not a
    dunder, of such a class."""
    for path in sorted((root / "src" / "discourse_rater").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", rf"\b{re.escape(node.name)}\b", path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        name = re.escape(item.name)
                        yield (f"{path.stem}.{node.name}.{item.name}",
                               rf"\.{name}\b|[\"']{name}[\"']", path, item)


def names_without_caller(root: Path) -> list[str]:
    """The qualified name of each definition of ``_definitions`` that no
    searched file outside that definition uses."""
    sources = {path: path.read_text(encoding="utf-8")
               for directory in SEARCHED for path in sorted((root / directory).rglob("*.py"))
               if path.name != "__init__.py"}
    unused = []
    for qualified, pattern, path, node in _definitions(root):
        lines = sources[path].splitlines(keepends=True)
        start = min([node.lineno, *(d.lineno for d in node.decorator_list)]) - 1
        outside = "".join(lines[:start] + lines[node.end_lineno:])
        use = re.compile(pattern)
        if not any(use.search(outside if other == path else text)
                   for other, text in sources.items()):
            unused.append(qualified)
    return unused


def test_every_top_level_name_has_a_caller_outside_the_tests():
    assert [name for name in names_without_caller(ROOT) if name.count(".") == 1] == []


def test_every_method_has_a_caller_outside_the_tests():
    assert [name for name in names_without_caller(ROOT) if name.count(".") == 2] == []


# Parameters that no call passes by name or position, and why each stays.
PASSED_ANOTHER_WAY = {
    # The console script calls main(); argv is for a caller that embeds the
    # command line.
    "cli.main(argv)",
    # Passed by splat: _resolve(args, *_SETTINGS[command]).
    "cli._resolve(required)",
    # Passed by ** from cli._grid, one axis per --grid-* flag given.
    "harness.default_grid(lrs)",
    "harness.default_grid(batch_sizes)",
    "harness.default_grid(fusion_modules)",
}


def _callables(tree: ast.Module, module: str):
    """(qualified name, called name, arguments, leading bound arguments) of
    each top-level function and each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name, node.args, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                if item.name == "__init__":
                    yield f"{module}.{node.name}", node.name, item.args, 1
                else:
                    yield f"{module}.{node.name}.{item.name}", item.name, item.args, int(not static)


def knobs_without_caller(root: Path) -> list[str]:
    """``module.function(parameter)`` for each parameter with a default that
    no call in the searched files passes."""
    calls: dict[str, list[ast.Call]] = {}
    for directory in SEARCHED:
        for path in sorted((root / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    unpassed = []
    for path in sorted((root / "src" / "discourse_rater").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, called, args, bound in _callables(tree, path.stem):
            positional = [*args.posonlyargs, *args.args]
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for param in with_default:
                index = positional.index(param) - bound if param in positional else None
                passed = any(
                    any(k.arg == param.arg for k in call.keywords)
                    or index is not None and len(call.args) > index
                    and not any(isinstance(a, ast.Starred) for a in call.args[:index + 1])
                    for call in calls.get(called, ()))
                if not passed:
                    unpassed.append(f"{qualified}({param.arg})")
    return unpassed


def test_every_parameter_with_a_default_is_passed_outside_the_tests():
    # An entry of PASSED_ANOTHER_WAY whose parameter is gone or now passed fails too.
    assert sorted(knobs_without_caller(ROOT)) == sorted(PASSED_ANOTHER_WAY)
