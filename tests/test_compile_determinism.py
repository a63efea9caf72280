"""A compile is a function of its instantiation, and a persisted one
belongs to the compiler that wrote it.

The allocator used to break ties between equal-sized tiles in
set-iteration order, which followed process-wide uid counters: the
same attention mapping got different shared-memory offsets, aliased
pairs and write-after-read edges depending on what had been compiled
before it. Both of its sorts now have a total key, and a compile numbers
its entities from zero, so the CUDA text and the buffer names repeat
digit for digit.
"""

import itertools

from repro import api
from repro.compiler import cache as compiler_cache
from repro.errors import CypressError
from repro.kernels import (
    build_flash_attention2, build_flash_attention3, build_gemm,
)
from repro.runtime import RuntimeServer, default_registry
from test_lowered_form import NO_CACHE

#: 144 mappings, about 120 of which build (the rest exceed shared memory).
ATTENTION_MAPPINGS = [
    (builder, dict(q_tile=q, kv_tile=kv, wgs=wgs, pipeline=depth,
                   warpspecialize=ws))
    for builder in (build_flash_attention2, build_flash_attention3)
    for q, kv, wgs, depth, ws in itertools.product(
        (64, 128, 256), (64, 128), (1, 2), (1, 2, 3), (True, False)
    )
]


def _observed(machine, builder, params):
    kernel = api.compile_kernel(
        builder(machine, 2, 1024, 128, **params), options=NO_CACHE
    )
    report = kernel.allocation
    return dict(
        offsets=list(report.offsets.items()),
        aliased=list(report.aliased_pairs),
        war_edges=report.war_edges_added,
        cuda=kernel.cuda_source,
        gpu=api.simulate(kernel, machine),
    )


def test_recompiling_a_mapping_gives_the_same_kernel(hopper):
    built = differing = 0
    for number, (builder, params) in enumerate(ATTENTION_MAPPINGS):
        try:
            first = _observed(hopper, builder, params)
        except CypressError:
            continue  # not buildable: too much shared memory
        built += 1
        # Unrelated compiles in between must not change the kernel.
        for _ in range(number % 4):
            api.compile_kernel(
                build_gemm(hopper, 256, 256, 128), options=NO_CACHE
            )
        differing += _observed(hopper, builder, params) != first
    assert built >= 100
    assert differing == 0, f"{differing} of {built} mappings recompiled differently"


class TestCompilerRevision:
    """``compile_key`` names the compiler, so a ``disk_cache=`` directory
    written by another revision is not served (two interpreters agreeing
    on keys is ``test_fingerprint_keys.py``'s check and covers the
    revision too)."""

    SHAPE = dict(m=128, n=256, k=64)

    def _tier_of_first_request(self, hopper, directory):
        api.clear_compile_cache()
        with RuntimeServer(
            hopper, default_registry(), workers=1, disk_cache=str(directory)
        ) as server:
            return server.submit("gemm", self.SHAPE).result(timeout=120).tier

    def test_a_disk_entry_is_not_served_to_another_revision(
        self, hopper, tmp_path, monkeypatch
    ):
        assert self._tier_of_first_request(hopper, tmp_path) == "compile"
        assert self._tier_of_first_request(hopper, tmp_path) == "disk"
        monkeypatch.setattr(
            compiler_cache, "COMPILER_REVISION", "some other compiler"
        )
        assert self._tier_of_first_request(hopper, tmp_path) == "compile"
        assert self._tier_of_first_request(hopper, tmp_path) == "disk"
        api.clear_compile_cache()
