"""A compile depends on its instantiation, not on the process's history.

Every entity a compile creates (tensor, operation, event, loop index,
fresh buffer name) is numbered from zero inside that compile
(:mod:`repro.numbering`). Recompiling an instantiation after any other
compiles, serial or on ``compile_many``'s thread pool, therefore prints
the same IR and the same CUDA, and two interpreters print the same CUDA
digit for digit. With process-wide counters, a paper GEMM printed
``A#1 ... i0`` as a process's first compile and ``A#26 ... i8`` after
one other GEMM.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.ir import print_function
from repro.kernels import KERNEL_BUILDERS
from test_copy_elim_golden import default_buckets, paper_points

SRC = Path(__file__).resolve().parents[1] / "src"


def _printed(kernel):
    return (
        kernel.cuda_source,
        print_function(kernel.final_ir),
        print_function(kernel.dependence_ir),
    )


def _others(machine, seed, count):
    """``count`` seeded draws from the paper points and every registered
    family's default buckets."""
    cases = paper_points() + list(default_buckets())
    return [
        KERNEL_BUILDERS[family](machine, **shape)
        for family, shape in random.Random(seed).sample(cases, count)
    ]


@pytest.mark.parametrize("point", [0, 17], ids=["gemm-4096", "fa3-4096"])
def test_recompiling_after_other_compiles_prints_the_same_kernel(
    hopper, point
):
    family, shape = paper_points()[point]
    api.clear_compile_cache()
    first = _printed(api.compile_kernel(KERNEL_BUILDERS[family](hopper, **shape)))
    for build in _others(hopper, seed=point, count=6):
        api.compile_kernel(build)
    api.compile_many(_others(hopper, seed=point + 1, count=12))
    api.clear_compile_cache()
    again = _printed(api.compile_kernel(KERNEL_BUILDERS[family](hopper, **shape)))
    api.clear_compile_cache()
    assert again[0] == first[0], "CUDA text"
    assert again[1] == first[1], "final IR"
    assert again[2] == first[2], "dependence IR"


#: Run in a fresh interpreter: the SHA-256 of every paper point's CUDA,
#: compiled in the order ``step`` walks the list.
_SCRIPT = """
import hashlib, json, sys
sys.path.insert(0, {tests!r})
from repro import api
from repro.kernels import KERNEL_BUILDERS
from repro.machine import hopper_machine
from test_copy_elim_golden import paper_points

machine = hopper_machine()
digests = {{}}
for family, shape in paper_points()[::{step}]:
    cuda = api.compile_kernel(KERNEL_BUILDERS[family](machine, **shape)).cuda_source
    digests[f"{{family}}{{sorted(shape.items())}}"] = hashlib.sha256(
        cuda.encode()
    ).hexdigest()
print(json.dumps(digests))
"""


def test_two_interpreters_print_the_same_cuda_in_opposite_orders():
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _SCRIPT.format(
                tests=str(Path(__file__).parent), step=step
            )],
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE, text=True,
        )
        for seed, step in ((0, 1), (1, -1))
    ]
    forwards, backwards = (
        json.loads(run.communicate(timeout=300)[0]) for run in runs
    )
    assert len(forwards) == 20
    assert forwards == backwards
