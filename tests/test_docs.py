"""Documentation contracts: docstring coverage and markdown links.

Part of the tier-1 suite CI's one job runs. It enforces four
invariants so documentation cannot silently regress:

1. every public symbol of ``repro.api``, ``repro.tuner``,
   ``repro.runtime``, ``repro.runtime.speculate``,
   ``repro.runtime.specialize``, ``repro.runtime.resilience``,
   ``repro.runtime.faults``, ``repro.graph``,
   ``repro.graph.template``, ``repro.obs``, ``repro.obs.ops``,
   ``repro.obs.slo``, and ``repro.tensors.regions`` (and their public methods) carries a
   non-empty docstring;
2. every intra-repo markdown link in ``README.md``, ``docs/``, and the
   other root guides resolves to an existing file;
3. every serving counter in ``repro.runtime.telemetry.COUNTERS`` is
   documented: its field in the ``RuntimeStats`` table of
   ``docs/serving.md``, its metric family in an ops-facing guide;
4. every ``repro_*`` metric family, ``/...z`` diagnostics endpoint and
   backticked dotted ``repro.…`` name that ``README.md`` or a ``docs/``
   guide names exists: the family in
   ``tests/golden_serving_surface.json``, the path in
   ``repro.obs.ops.ENDPOINTS``, the name as a module or an attribute
   of one.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

import repro.api
import repro.graph
import repro.graph.template
import repro.obs
import repro.obs.ops
import repro.obs.slo
import repro.runtime
import repro.runtime.faults
import repro.runtime.resilience
import repro.runtime.specialize
import repro.runtime.speculate
import repro.tensors.regions
import repro.tuner
from repro.obs.ops import ENDPOINTS
from repro.runtime.telemetry import COUNTERS

REPO_ROOT = Path(__file__).resolve().parent.parent

PUBLIC_MODULES = (
    repro.api,
    repro.tuner,
    repro.runtime,
    repro.runtime.specialize,
    repro.runtime.speculate,
    repro.runtime.resilience,
    repro.runtime.faults,
    repro.graph,
    repro.graph.template,
    repro.obs,
    repro.obs.ops,
    repro.obs.slo,
    repro.tensors.regions,
)

#: Inherited members whose docstrings come from the standard library.
_SKIP_METHODS = {"__init__"}


def _public_symbols(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in dir(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            yield name, obj


def _public_methods(cls):
    for name, member in vars(cls).items():
        if name.startswith("_") or name in _SKIP_METHODS:
            continue
        if isinstance(member, property):
            yield name, member.fget
        elif inspect.isfunction(member) or isinstance(
            member, (classmethod, staticmethod)
        ):
            yield name, member


class TestDocstringCoverage:
    @pytest.mark.parametrize(
        "module", PUBLIC_MODULES, ids=lambda m: m.__name__
    )
    def test_module_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip()

    @pytest.mark.parametrize(
        "module", PUBLIC_MODULES, ids=lambda m: m.__name__
    )
    def test_every_public_symbol_documented(self, module):
        missing = [
            f"{module.__name__}.{name}"
            for name, obj in _public_symbols(module)
            if not inspect.getdoc(obj)
        ]
        assert not missing, f"undocumented public symbols: {missing}"

    @pytest.mark.parametrize(
        "module", PUBLIC_MODULES, ids=lambda m: m.__name__
    )
    def test_every_public_method_documented(self, module):
        missing = []
        for name, obj in _public_symbols(module):
            if not inspect.isclass(obj):
                continue
            for mname, method in _public_methods(obj):
                fn = (
                    method.__func__
                    if isinstance(method, (classmethod, staticmethod))
                    else method
                )
                if fn is not None and not inspect.getdoc(fn):
                    missing.append(f"{module.__name__}.{name}.{mname}")
        assert not missing, f"undocumented public methods: {missing}"


_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _markdown_files():
    files = sorted(REPO_ROOT.glob("*.md"))
    files += sorted((REPO_ROOT / "docs").glob("*.md"))
    return files


class TestMarkdownLinks:
    def test_docs_tree_exists(self):
        for guide in (
            "architecture.md", "tuning.md", "serving.md", "graphs.md",
            "observability.md", "specialization.md", "resilience.md",
            "ops.md",
        ):
            assert (REPO_ROOT / "docs" / guide).exists(), guide

    @pytest.mark.parametrize(
        "path", _markdown_files(), ids=lambda p: str(p.relative_to(REPO_ROOT))
    )
    def test_intra_repo_links_resolve(self, path):
        broken = []
        for target in _LINK.findall(path.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.split("#")[0]
            if not target:
                continue  # pure anchor
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, f"{path.name}: broken links {broken}"

    def test_readme_links_the_three_guides(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for guide in (
            "docs/architecture.md",
            "docs/tuning.md",
            "docs/serving.md",
        ):
            assert guide in readme, f"README must link {guide}"


class TestCounterDocs:
    def test_every_counter_field_is_in_the_runtime_stats_table(self):
        serving = (REPO_ROOT / "docs" / "serving.md").read_text()
        table = serving.split("### `RuntimeStats`")[1].split("\n### ")[0]
        missing = [
            spec.field for spec in COUNTERS if f"`{spec.field}`" not in table
        ]
        assert not missing, f"docs/serving.md RuntimeStats table: {missing}"

    def test_every_counter_metric_is_in_an_ops_guide(self):
        guides = "".join(
            (REPO_ROOT / "docs" / name).read_text()
            for name in ("observability.md", "ops.md", "resilience.md")
        )
        missing = [
            spec.metric for spec in COUNTERS if f"`{spec.metric}`" not in guides
        ]
        assert not missing, f"undocumented metric families: {missing}"


#: A metric family name, and a diagnostics endpoint path (``/...z``)
#: not preceded by a path segment or a file name.
_FAMILY = re.compile(r"repro_[a-z0-9_]+")
_ENDPOINT = re.compile(r"(?<![\w.])/[a-z]+z\b")

#: A code span that is exactly a dotted name under ``repro``.
_DOTTED = re.compile(r"`(repro(?:\.\w+)+)`")


def _guides():
    return [REPO_ROOT / "README.md"] + sorted((REPO_ROOT / "docs").glob("*.md"))


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute path below the
    longest prefix of it that imports."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


class TestDocsNameLiveSurface:
    def test_named_modules_and_attributes_exist(self):
        named = [
            (path.name, name)
            for path in _guides()
            for name in _DOTTED.findall(path.read_text())
        ]
        assert named, "no guide names a dotted repro name"
        stale = [f"{guide}: {name}" for guide, name in named
                 if not _resolves(name)]
        assert not stale, f"docs name modules that do not exist: {stale}"

    def test_named_families_and_endpoints_exist(self):
        golden = json.loads(
            (REPO_ROOT / "tests" / "golden_serving_surface.json").read_text()
        )
        families = {family[0] for family in golden["metric_families"]}
        stale = []
        for path in _guides():
            text = path.read_text()
            stale += [
                f"{path.name}: {name}"
                for name in _FAMILY.findall(text)
                if name not in families
            ]
            stale += [
                f"{path.name}: {endpoint}"
                for endpoint in _ENDPOINT.findall(text)
                if endpoint not in ENDPOINTS
            ]
        assert not stale, f"docs name surface that does not exist: {stale}"
