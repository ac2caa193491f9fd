"""Every top-level function and class of the package has a caller outside the tests.

A name counts as used when it appears as a whole word in ``src/``,
``scripts/`` or ``perfbench/`` anywhere but its own definition, strings
included, so the names in ``perfbench/tracer.py``'s tables count.  The
package's ``__init__.py`` re-exports names without calling them, so it is
neither checked nor searched.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "scripts", "perfbench")


def names_without_caller(root: Path) -> list[str]:
    """``module.name`` for each top-level def or class of ``root``'s package
    that no searched file outside its own definition mentions."""
    sources = {path: path.read_text(encoding="utf-8")
               for directory in SEARCHED for path in sorted((root / directory).rglob("*.py"))
               if path.name != "__init__.py"}
    unused = []
    for path in sorted((root / "src" / "discourse_rater").glob("*.py")):
        if path.name == "__init__.py":
            continue
        lines = sources[path].splitlines(keepends=True)
        for node in ast.parse(sources[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)]) - 1
            outside = "".join(lines[:start] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(outside if other == path else text)
                       for other, text in sources.items()):
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_top_level_name_has_a_caller_outside_the_tests():
    assert names_without_caller(ROOT) == []
