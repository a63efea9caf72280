"""Every module under ``src/repro`` is reachable, and the core imports down.

For each module that is not a package ``__init__``, at least one of its
top-level names (a function, class or assigned name) must appear in some
other file under ``src/``, ``bench/`` or ``examples/``. Package
``__init__`` files do not count, so a re-export alone does not keep a
module alive. This is a floor, not a proof — a name in a comment counts
— but a module no compile, simulation, served request or figure can
reach no longer grows back unnoticed.

The compiler core — the layers a compile runs through — imports nothing
from the layers built on it (:data:`CORE`, :data:`UPPER`), counting
imports inside functions, so a compile loads no serving or ops module.
The graph layer imports nothing from the tuner (:data:`GRAPH`): it
schedules without a cost model.

No module imports a name it never uses (:func:`unused_imports`; a name
used only in a string annotation counts as used).

Run these against another checkout with
``python tests/test_reachability.py <repo root>``.

The function census goes one level down: a function that is named but
never runs. ``python tests/test_reachability.py --functions <repo
root>`` runs that checkout's entry set (:func:`entry_commands`: every
example at its defaults, the flags CI and the docs name, and the bench
smoke) with ``tests/census/sitecustomize.py`` recording every function
entered, in every process and thread. It prints each ``src/repro``
function never entered, with its line span, and compares them with the
checkout's ``tests/unreached_functions.txt``, in which every such
function has one class (:data:`CLASSES`) and a reason. It exits 1 on
any difference in either direction: a function that runs but is
listed, or one that never runs and is not. It takes about 65 s on a
2-CPU host.
Tier-1 keeps the list true more cheaply: every entry resolves to a
``def`` with a known class and a reason, and the tiny in-process
example configurations of ``tests/test_examples.py``, recorded, call
no listed function.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MENTIONING_DIRS = ("src", "bench", "examples")

#: Packages (and one module) of the compiler core, under ``src/repro``.
CORE = (
    "compiler", "frontend", "ir", "tensors", "gpusim", "machine", "sym",
    "kernels", "numbering.py",
)
#: What the core may not import.
UPPER = ("repro.obs", "repro.runtime", "repro.graph", "repro.tuner",
         "repro.api")
#: ``bench`` imports ``transformer_block_graph`` from ``repro.kernels``;
#: it builds its graph with a function-level ``GraphBuilder`` import.
ALLOWED_UP = {("kernels/transformer_block.py", "repro.graph")}
#: The graph layer and what it may not import.
GRAPH = (("graph",), ("repro.tuner",))
#: Every layering rule: packages under ``src/repro``, what they may not
#: import.
LAYERING = ((CORE, UPPER), GRAPH)


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


def _imported(node):
    """Dotted names an import statement binds, submodules included."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [
            f"{node.module}.{alias.name}" for alias in node.names
        ]
    return []


def forbidden_imports(root=ROOT, rules=LAYERING):
    """``path:line`` of each import a layering rule in ``rules`` forbids."""
    package = root / "src" / "repro"
    found = []
    for module in sorted(package.rglob("*.py")):
        rel = module.relative_to(package).as_posix()
        for packages, forbidden in rules:
            if rel.split("/")[0] not in packages:
                continue
            for node in ast.walk(ast.parse(module.read_text())):
                layers = {
                    layer
                    for name in _imported(node)
                    for layer in forbidden
                    if name == layer or name.startswith(layer + ".")
                }
                if layers - {layer for path, layer in ALLOWED_UP if path == rel}:
                    found.append(f"{rel}:{node.lineno}")
    return found


def _annotation_names(tree):
    """Names used inside string annotations (``Optional["Operation"]``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        else:
            continue
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                inner = ast.parse(part.value, mode="eval")
                names |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
                names |= _annotation_names(inner)
    return names


def unused_imports(root=ROOT):
    """``path:line name`` of each imported name its module never uses."""
    package = root / "src" / "repro"
    found = []
    for module in sorted(package.rglob("*.py")):
        tree = ast.parse(module.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _annotation_names(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= {element.value for element in node.value.elts}
        rel = module.relative_to(package).as_posix()
        found += [f"{rel}:{imported[name]} {name}"
                  for name in sorted(set(imported) - used)]
    return found


# ----------------------------------------------------------------------
# Function census
# ----------------------------------------------------------------------
HOOK_DIR = Path(__file__).resolve().parent / "census"
UNREACHED_LIST = Path("tests") / "unreached_functions.txt"

#: Why a function no entry point calls may stay, by class. A class in
#: :data:`PENDING` names work still to do, so an entry in it fails.
CLASSES = {
    "error-path": "a failure branch; the reason names a test that reaches it",
    "fallback": "serves inputs no entry point produces; the reason names "
                "a test that reaches it through the program",
    "test-oracle": "a checker only tests use; move it under tests/",
    "operator-surface": "named by docs/ops.md or docs/observability.md",
    "dunder": "a dunder method, or a method of an abstract base",
    "delete": "nothing needs it; delete it",
}
PENDING = ("test-oracle", "delete")
#: Classes whose reason must name a test, as ``tests/<file>.py::<name>``
#: (``::Class::name`` for a method).
NAMES_A_TEST = ("error-path", "fallback")
TEST_REF = re.compile(r"\b(tests/[\w/]+\.py)((?:::\w+)+)")
#: Where an operator-surface reason must find the function named.
OPERATOR_DOCS = ("docs/ops.md", "docs/observability.md")


def entry_commands(root, scratch):
    """The function census's entry set, as interpreter arguments run from
    ``root``: every example at its defaults, each example flag CI and the
    docs name, and the bench smoke (whose worker children inherit the
    recorder through ``PYTHONPATH``)."""
    examples = sorted((root / "examples").glob("*.py"))
    return [[path.relative_to(root).as_posix()] for path in examples] + [
        ["examples/paper_figures.py", "--tiny"],
        ["examples/serving.py", "--specialize"],
        ["examples/serving.py", "--trace", str(Path(scratch) / "trace.json")],
        ["examples/serving.py", "--diag"],
        ["-m", "bench", "--seed", "1", "--smoke", "--trace"],
    ]


def function_defs(root=ROOT):
    """``path:qualname`` -> ``(first line, last line)`` of every function
    defined under ``src/repro``, decorators included; nested functions
    are named as ``__qualname__`` names them."""
    package = root / "src" / "repro"
    defs = {}

    def visit(node, prefix, rel):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                defs[f"{rel}:{qualname}"] = (first, child.end_lineno)
                visit(child, qualname + ".<locals>.", rel)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", rel)
            else:
                visit(child, prefix, rel)

    for module in sorted(package.rglob("*.py")):
        visit(ast.parse(module.read_text()), "",
              module.relative_to(package).as_posix())
    return defs


def _function_names(root, codes):
    """``path:qualname`` of each ``(filename, qualname)`` under ``src/repro``."""
    package = (root / "src" / "repro").resolve()
    names = set()
    for filename, qualname in codes:
        path = (root / filename).resolve()
        if path.is_relative_to(package):
            names.add(f"{path.relative_to(package).as_posix()}:{qualname}")
    return names


def record_entry_points(root):
    """``path:qualname`` of every ``src/repro`` function the entry set
    enters, run two commands at a time."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "calls"
        out.mkdir()
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(HOOK_DIR), str(root / "src")]),
            REPRO_CENSUS_OUT=str(out),
        )

        def run(args):
            done = subprocess.run(
                [sys.executable, *args], cwd=root, env=env,
                capture_output=True, text=True,
            )
            if done.returncode:
                raise RuntimeError(
                    f"{' '.join(args)} exited with code {done.returncode}:\n"
                    f"{done.stderr[-3000:]}"
                )

        with ThreadPoolExecutor(2) as pool:
            list(pool.map(run, entry_commands(root, scratch)))
        codes = [
            line.split("\t")
            for tsv in out.glob("*.tsv")
            for line in tsv.read_text().splitlines()
        ]
    return _function_names(root, codes)


def read_unreached_list(root=ROOT):
    """``(line number, path:qualname, class, reason)`` per entry of the list."""
    entries = []
    for number, line in enumerate(
        (root / UNREACHED_LIST).read_text().splitlines(), 1
    ):
        if line.strip() and not line.startswith("#"):
            name, cls, reason = (line.split(None, 2) + ["", ""])[:3]
            entries.append((number, name, cls, reason.strip()))
    return entries


def _names_a_test(root, reason):
    """Whether ``reason`` names a test that exists: its file, and a
    ``def`` or ``class`` there for every ``::`` part."""
    for path, parts in TEST_REF.findall(reason):
        test_file = root / path
        if test_file.is_file() and all(
            re.search(rf"^\s*(?:def|class) {name}\b", test_file.read_text(),
                      re.MULTILINE)
            for name in parts.split("::")[1:]
        ):
            return True
    return False


def list_problems(root=ROOT):
    """What is wrong with the list, read alone, one string per problem."""
    defs = function_defs(root)
    entries = read_unreached_list(root)
    counts = Counter(name for _, name, _, _ in entries)
    problems = []
    for number, name, cls, reason in entries:
        where = f"{UNREACHED_LIST}:{number}: {name}"
        if counts[name] > 1:
            problems.append(f"{where}: listed {counts[name]} times")
        if name not in defs:
            problems.append(f"{where}: no such function under src/repro")
        if cls not in CLASSES:
            problems.append(f"{where}: unknown class {cls!r}")
        elif cls in PENDING:
            problems.append(f"{where}: {cls}: {CLASSES[cls]}")
        if not reason:
            problems.append(f"{where}: no reason")
        elif cls in NAMES_A_TEST and not _names_a_test(root, reason):
            problems.append(
                f"{where}: a {cls} reason names a test as tests/<file>.py::<name>"
            )
        elif cls == "operator-surface" and not any(
            doc in reason for doc in OPERATOR_DOCS
        ):
            problems.append(
                f"{where}: an operator-surface reason names {OPERATOR_DOCS}"
            )
    return problems


def _lines(defs, names):
    return sum(defs[name][1] - defs[name][0] + 1 for name in names)


def _print_tally(defs, names, group_of):
    """One line per group of ``names``: how many functions, how many lines."""
    groups = {}
    for name in names:
        groups.setdefault(group_of(name), []).append(name)
    for group, members in sorted(groups.items()):
        print(f"  {group:<16} {len(members):>4} functions "
              f"{_lines(defs, members):>6} lines")


def function_census(root):
    """Run the census over ``root``, print it, and return 1 on any
    difference from the checkout's list (0 if it has none to compare)."""
    started = time.monotonic()
    defs = function_defs(root)
    unreached = sorted(set(defs) - record_entry_points(root))
    has_list = (root / UNREACHED_LIST).is_file()
    listed = {
        name: cls for _, name, cls, _ in read_unreached_list(root)
    } if has_list else {}
    for name in unreached:
        first, last = defs[name]
        print(f"{name}  {last - first + 1} lines  {listed.get(name, '-')}")
    print(f"\n{len(unreached)} of {len(defs)} functions never called, "
          f"{_lines(defs, unreached)} lines")
    _print_tally(defs, unreached, lambda name: re.split("[/:]", name)[0])
    problems = []
    if has_list:
        _print_tally(defs, unreached, lambda name: listed.get(name, "unlisted"))
        problems = list_problems(root)
        problems += [f"never called, not listed: {name}"
                     for name in unreached if name not in listed]
        problems += [f"listed, but called: {name}"
                     for name in sorted(set(listed) - set(unreached))]
    for problem in problems:
        print(problem)
    print(f"census wall time {time.monotonic() - started:.0f} s")
    return 1 if problems else 0


def test_every_module_is_mentioned_from_outside_itself():
    assert unreached_modules() == []


def test_the_compiler_core_imports_no_layer_above_it():
    assert forbidden_imports(rules=[(CORE, UPPER)]) == []


def test_the_graph_layer_imports_no_tuner():
    assert forbidden_imports(rules=[GRAPH]) == []


def test_a_compile_loads_no_serving_or_ops_module():
    script = (
        "import sys\n"
        "from repro.compiler.pipeline import build_step\n"
        "from repro.kernels import build_gemm\n"
        "from repro.machine import hopper_machine\n"
        "build = build_gemm(hopper_machine(), 256, 256, 128, tile_m=128)\n"
        "build_step(build)[1]()\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] in (['repro', 'obs'],\n"
        "                                     ['repro', 'runtime'])))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports() == []


def test_every_listed_function_has_a_def_a_class_and_a_reason():
    assert list_problems() == []


def test_the_tiny_example_runs_call_no_listed_function(tmp_path):
    from test_examples import run_tiny, tiny_configurations

    spec = importlib.util.spec_from_file_location(
        "census_recorder", HOOK_DIR / "sitecustomize.py"
    )
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    recorder.start()
    try:
        for run in tiny_configurations(tmp_path):
            run_tiny(run, tmp_path)
    finally:
        codes = recorder.stop()
    called = _function_names(
        ROOT, ((code.co_filename, code.co_qualname) for code in codes)
    )
    listed = {name for _, name, _, _ in read_unreached_list()}
    assert sorted(called & listed) == []


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--functions"]:
        sys.exit(function_census(Path(args[1] if len(args) > 1 else ROOT).resolve()))
    checkout = Path(args[0]) if args else ROOT
    for name in (unreached_modules(checkout) + forbidden_imports(checkout)
                 + unused_imports(checkout)):
        print(name)
