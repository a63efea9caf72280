"""Copy elimination is the same function it was before the use index.

``tests/golden_copy_elim.json`` was recorded at the commit *before*
``compiler/copy_elim.py`` stopped re-walking the function per rewrite
(it repeated in two fresh interpreters there). For every case it holds
the number of ops the pass removed and two SHA-256 digests of
``print_function(fn)`` taken right after ``copy-elim``:

* ``masked`` — every digit run glued to an identifier replaced by ``#``;
* ``renumbered`` — every such identifier replaced by its masked form
  plus the order in which it first appears, which keeps *which* event a
  precondition names and *which* buffer a reference points into —
  exactly what the pass's index of event users and tensor references
  could get wrong.

The digests were recorded when every uid came from a process-wide
counter, so two runs of one case differed in exactly those digits.
Entities are now numbered per compile (:mod:`repro.numbering`); the IR
here is built outside a compile and still draws process-wide numbers,
so the masks stay. The recorded digests passing unchanged is the proof
that per-compile numbering moved only digits.

The second half re-derives the index from ``fn.walk()`` after every
single rewrite and compares it with the one the pass maintained.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.compiler import copy_elim
from repro.compiler.dependence import DependenceAnalysis
from repro.compiler.vectorize import vectorize
from repro.ir.printer import print_function
from repro.kernels import KERNEL_BUILDERS
from repro.machine import ampere_machine, hopper_machine
from repro.runtime import default_registry

GOLDEN = Path(__file__).with_name("golden_copy_elim.json")

GEMM_FAMILIES = ("gemm", "batched_gemm", "dual_gemm", "gemm_reduction")
ATTENTION = ("flash_attention2", "flash_attention3")

#: The twelve small instantiations the benchmark runs numerically.
NUMERIC_CASES = (
    ("gemm", dict(m=128, n=256, k=64),
     dict(tile_m=128, tile_n=256, tile_k=64)),
    ("gemm", dict(m=128, n=128, k=128),
     dict(tile_m=128, tile_n=128, tile_k=64, wgs=1, pipeline=1,
          warpspecialize=False)),
    ("gemm", dict(m=256, n=256, k=64),
     dict(tile_m=256, tile_n=256, tile_k=64, pipeline=2)),
    ("batched_gemm", dict(batch=2, m=128, n=256, k=64),
     dict(tile_m=128, tile_n=256, tile_k=64)),
    ("batched_gemm", dict(batch=1, m=128, n=128, k=128),
     dict(tile_m=128, tile_n=128, tile_k=64, wgs=1, warpspecialize=False)),
    ("dual_gemm", dict(m=128, n=256, k=64),
     dict(tile_m=128, tile_n=256, tile_k=64)),
    ("dual_gemm", dict(m=128, n=128, k=64),
     dict(tile_m=128, tile_n=128, tile_k=64, pipeline=2)),
    ("gemm_reduction", dict(m=128, n=256, k=64),
     dict(tile_m=128, tile_n=256, tile_k=64)),
    ("gemm_reduction", dict(m=128, n=256, k=64),
     dict(tile_m=128, tile_n=256, tile_k=64, accumulator="shared")),
    ("flash_attention2", dict(heads=1, seq=128, head_dim=128), dict()),
    ("flash_attention2", dict(heads=1, seq=128, head_dim=128),
     dict(warpspecialize=False, pipeline=1)),
    ("flash_attention3", dict(heads=1, seq=128, head_dim=128), dict()),
)


def paper_points():
    """Figure 13a-d at M=N=K in {4096, 6144, 8192} (batch 4 for 13b)
    and Figure 14 FA2/FA3 at 16 heads, sequence 2048..16384."""
    points = []
    for family in GEMM_FAMILIES:
        for size in (4096, 6144, 8192):
            shape = dict(m=size, n=size, k=size)
            if family == "batched_gemm":
                shape = dict(batch=4, **shape)
            points.append((family, shape))
    for family in ATTENTION:
        for seq in (2048, 4096, 8192, 16384):
            points.append((family, dict(heads=16, seq=seq, head_dim=128)))
    return points


def default_buckets():
    """Every registered family's default build along the diagonal of its
    bucket ladders: rung ``i`` of every dimension (a shorter ladder stays
    on its last rung), for every ``i`` the longest ladder has."""
    registry = default_registry()
    for family in sorted(KERNEL_BUILDERS):
        registered = registry.get(family)
        ladders = [registered.policy.ladders[dim] for dim in registered.dims]
        for rung in range(max(len(ladder) for ladder in ladders)):
            yield family, {
                dim: ladder[min(rung, len(ladder) - 1)]
                for dim, ladder in zip(registered.dims, ladders)
            }


def cases():
    """``(label, machine name, family, shape, builder params)``."""
    out = []

    def add(group, machine, family, shape, params):
        dims = "x".join(f"{k}{v}" for k, v in shape.items())
        knobs = ",".join(f"{k}={params[k]}" for k in sorted(params))
        out.append((
            f"{group}:{family}@{machine}/{dims}/{knobs or 'default'}",
            machine, family, shape, params,
        ))

    for family, shape in paper_points():
        add("paper", "hopper", family, shape, {})
    for family, shape in default_buckets():
        add("bucket", "hopper", family, shape, {})
        if family in GEMM_FAMILIES:
            # No TMA and no warp specialization on the Ampere model.
            add("bucket", "ampere", family, shape,
                dict(warpspecialize=False))
    for family, shape, params in NUMERIC_CASES:
        add("numeric", "hopper", family, shape, params)
        if family in GEMM_FAMILIES:
            add("numeric", "ampere", family, shape,
                dict(params, warpspecialize=False))
    return out


_GLUED = re.compile(r"(?<=[A-Za-z_#])\d+")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9#]*")


def masked(text: str) -> str:
    return _GLUED.sub("#", text)


def renumbered(text: str) -> str:
    """Each identifier that carries digits becomes its masked form plus
    the rank of its first appearance among identifiers masking alike."""
    seen = {}

    def rename(match):
        token = match.group()
        form = masked(token)
        if form == token:
            return token
        ranks = seen.setdefault(form, {})
        return f"{form}@{ranks.setdefault(token, len(ranks))}"

    return _IDENT.sub(rename, text)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def vectorized_ir(machine, family, shape, params):
    """The IR ``copy-elim`` receives."""
    build = KERNEL_BUILDERS[family](machine, **shape, **params)
    fn = DependenceAnalysis(build.spec, build.name).run(
        build.arg_shapes, build.arg_dtypes, build.scalar_args
    )
    vectorize(fn)
    return fn


def compute_digests():
    machines = {"hopper": hopper_machine(), "ampere": ampere_machine()}
    out = {}
    for label, machine, family, shape, params in cases():
        fn = vectorized_ir(machines[machine], family, shape, params)
        before = sum(1 for _ in fn.walk())
        copy_elim.eliminate_copies(fn)
        text = print_function(fn)
        out[label] = {
            "removed": before - sum(1 for _ in fn.walk()),
            "masked": _sha(masked(text)),
            "renumbered": _sha(renumbered(text)),
        }
    return out


def test_post_copy_elim_ir_matches_the_recorded_digests():
    golden = json.loads(GOLDEN.read_text())
    got = compute_digests()
    assert sorted(got) == sorted(golden)
    wrong = {k: (got[k], golden[k]) for k in golden if got[k] != golden[k]}
    assert not wrong, f"{len(wrong)} of {len(golden)} differ: {wrong}"
    assert len(golden) == 107


# ----------------------------------------------------------------------
# The use index against a rebuild from fn.walk(), after every rewrite
# ----------------------------------------------------------------------
def _snapshot(uses):
    """What a ``_Uses`` claims, without the empty entries a maintained
    index leaves behind."""
    return dict(
        ops=set(uses.ops),
        blocks={id(block) for block in uses.blocks},
        waiters={e: set(ops) for e, ops in uses.waiters.items() if ops},
        refs={uid: set(ops) for uid, ops in uses.refs.items() if ops},
        reads={uid: n for uid, n in uses.reads.items() if n},
        writes={uid: n for uid, n in uses.writes.items() if n},
    )


@pytest.fixture()
def checked_rewrites(monkeypatch):
    """Every rewrite step is followed by the self-check; yields, per
    step, whether it rewrote."""
    rewrite = copy_elim._rewrite
    rewrites = []

    def checked(uses, pattern, block, start):
        resume = rewrite(uses, pattern, block, start)
        assert _snapshot(uses) == _snapshot(copy_elim._Uses(uses.fn))
        rewrites.append(resume is not None)
        return resume

    monkeypatch.setattr(copy_elim, "_rewrite", checked)
    return rewrites


@pytest.mark.parametrize(
    "family, shape",
    [
        ("flash_attention2", dict(heads=16, seq=4096, head_dim=128)),
        ("flash_attention3", dict(heads=16, seq=4096, head_dim=128)),
        ("dual_gemm", dict(m=8192, n=8192, k=8192)),
    ],
)
def test_index_is_current_after_every_rewrite(
    hopper, checked_rewrites, family, shape
):
    fn = vectorized_ir(hopper, family, shape, {})
    copy_elim.eliminate_copies(fn)
    assert sum(checked_rewrites) >= 20  # FA3: 53 rewrites


def _hand_built():
    import test_copy_elim_patterns as patterns

    for name, cls in vars(patterns).items():
        if name.startswith("Test"):
            for method in vars(cls):
                if method.startswith("test_"):
                    yield pytest.param(cls, method, id=f"{name}.{method}")


@pytest.mark.parametrize("cls, method", _hand_built())
def test_index_is_current_on_the_hand_built_functions(
    checked_rewrites, cls, method
):
    getattr(cls(), method)()
    assert checked_rewrites


def test_one_whole_function_walk_per_call(hopper, monkeypatch):
    """Complexity guard: the pass builds its index from one
    ``IRFunction.walk`` and no rewrite walks the function again (a
    pattern walking one loop body is fine). Before the index it was 3-4
    walks for each of FA3's 53 rewrites."""
    from repro.ir.module import IRFunction

    fn = vectorized_ir(
        hopper, "flash_attention3", dict(heads=16, seq=4096, head_dim=128), {}
    )
    walk = IRFunction.walk
    calls = []
    monkeypatch.setattr(
        IRFunction, "walk", lambda self: calls.append(1) or walk(self)
    )
    copy_elim.eliminate_copies(fn)
    assert 1 <= len(calls) <= 2


if __name__ == "__main__":
    # Re-record: ``PYTHONPATH=src python tests/test_copy_elim_golden.py``.
    GOLDEN.write_text(json.dumps(compute_digests(), indent=1) + "\n")
