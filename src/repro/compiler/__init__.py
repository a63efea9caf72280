"""The Cypress compiler (paper section 4, Figure 6).

The pipeline is organized as an explicit **pass manager**
(:mod:`repro.compiler.passes`): each stage is a named :class:`Pass` in
:data:`PASS_REGISTRY`, and :class:`PassManager` runs an ordered list of
them with per-pass wall-time/IR-size instrumentation and a configurable
:class:`VerifyPolicy`. The default pipeline, in order:

1. :mod:`repro.compiler.dependence` — task tree to event IR (the
   frontend stage; it *creates* the IR, so it runs before the manager).
2. ``vectorize`` — flatten implicit parallel loops.
3. ``copy-elim`` — remove copy-in/copy-out noise.
4. ``allocate-shared`` — shared-memory interference allocation with WAR
   synchronization edges.
5. ``warp-specialize`` — warp specialization and software pipelining.
6. ``lower-schedule`` / ``codegen-cuda`` — one lowering of the final
   IR, printed as the executable schedule for the simulator and as
   CUDA-like C++ text.

:func:`repro.compiler.pipeline.compile_program` drives the whole flow.
It is fronted by a content-keyed **compile cache**
(:mod:`repro.compiler.cache`): the cache key hashes the mapping spec,
the argument shapes/dtypes, the machine description, and the
:class:`CompileOptions`, so recompiling an identical instantiation (the
common case in autotuning sweeps) executes no passes at all. The
per-pass :class:`PassTrace` lands in ``CompiledKernel.metadata``.
"""

from repro.compiler.cache import (
    CacheStats,
    CompileCache,
    compile_cache,
    compile_key,
)
from repro.compiler.passes import (
    DEFAULT_PIPELINE,
    PASS_REGISTRY,
    CompileOptions,
    Pass,
    PassContext,
    PassManager,
    PassRecord,
    PassTrace,
    VerifyPolicy,
    build_pass,
    register_pass,
)
from repro.compiler.pipeline import (
    CompiledKernel,
    compile_key_for,
    compile_program,
)

__all__ = [
    "CacheStats",
    "CompileCache",
    "CompileOptions",
    "CompiledKernel",
    "DEFAULT_PIPELINE",
    "PASS_REGISTRY",
    "Pass",
    "PassContext",
    "PassManager",
    "PassRecord",
    "PassTrace",
    "VerifyPolicy",
    "build_pass",
    "compile_cache",
    "compile_key",
    "compile_key_for",
    "compile_program",
    "register_pass",
]
