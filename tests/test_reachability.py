"""Every module under ``src/repro`` is mentioned from outside itself.

For each module that is not a package ``__init__``, at least one of its
top-level names (a function, class or assigned name) must appear in some
other file under ``src/``, ``bench/`` or ``examples/``. Package
``__init__`` files do not count, so a re-export alone does not keep a
module alive. This is a floor, not a proof — a name in a comment counts
— but a module no compile, simulation, served request or figure can
reach no longer grows back unnoticed.

Run it against another checkout with
``python tests/test_reachability.py <repo root>``.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MENTIONING_DIRS = ("src", "bench", "examples")


def _top_level_names(path):
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def unreached_modules(root=ROOT):
    """Modules under ``src/repro`` none of whose names another file mentions."""
    package = root / "src" / "repro"
    texts = {
        path: path.read_text()
        for folder in MENTIONING_DIRS
        for path in sorted((root / folder).rglob("*.py"))
        if path.name != "__init__.py"
    }
    unreached = []
    for module in sorted(package.rglob("*.py")):
        if module.name == "__init__.py":
            continue
        names = sorted(_top_level_names(module))
        mention = re.compile(r"\b(?:%s)\b" % "|".join(map(re.escape, names)))
        if not names or not any(
            mention.search(text) for path, text in texts.items() if path != module
        ):
            unreached.append(module.relative_to(package).as_posix())
    return unreached


def test_every_module_is_mentioned_from_outside_itself():
    assert unreached_modules() == []


if __name__ == "__main__":
    for name in unreached_modules(Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT):
        print(name)
