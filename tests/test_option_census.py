"""Every settable value of the compile, tuning and serving entry points,
and of the compiler passes those run.

Each list below is the literal set of parameters a caller may leave at
its default (plus ``CompileOptions``' fields and the values its
``verify`` field accepts, the fields of ``ResilienceConfig`` and of the
speculator, specializer and diagnostics configs, and the
fault sites a ``FaultPlan`` can arm). A new keyword, option field, policy or
site fails this test until the list is edited in the same change — so
adding a knob is a decision a reviewer sees.
"""

import dataclasses
import inspect

import pytest

from repro import api
from repro.compiler.allocation import allocate_shared
from repro.compiler.copy_elim import eliminate_copies
from repro.compiler.passes import CompileOptions, VerifyPolicy
from repro.compiler.pipeline import compile_program
from repro.compiler.vectorize import vectorize
from repro.compiler.warpspec import specialize_warps
from repro.obs import DiagConfig, FlightRecorder, Tracer
from repro.runtime import (
    FAULT_SITES,
    DiskCacheTier,
    ResilienceConfig,
    RuntimeServer,
    SpecializerConfig,
    SpeculatorConfig,
)
from repro.tuner import autotune

CENSUS = [
    (autotune, ["options", "top_k"]),
    (api.compile_many, ["options", "raise_on_error"]),
    (api.compile_kernel, ["options"]),
    (compile_program, ["options"]),
    (vectorize, []),
    (eliminate_copies, []),
    (allocate_shared, ["limit_bytes"]),
    (specialize_warps, ["enabled", "pipeline_depth"]),
    (
        RuntimeServer.__init__,
        [
            "registry", "workers", "disk_cache", "max_batch", "speculate",
            "specialize", "trace", "flight", "resilience", "diag", "faults",
            "start",
        ],
    ),
    (RuntimeServer.submit, ["inputs", "deadline"]),
    (RuntimeServer.submit_graph, ["inputs"]),
    (api.serve, ["**options"]),
    (DiskCacheTier.__init__, ["max_bytes", "max_quarantine"]),
    (FlightRecorder.__init__, ["capacity", "path", "max_dumps"]),
    (Tracer.__init__, ["capacity", "recorder"]),
]

COMPILE_OPTIONS_FIELDS = ["use_tma", "scalar_args", "verify", "cache", "passes"]

VERIFY_POLICIES = ["every-pass", "ends"]

RESILIENCE_CONFIG_FIELDS = ["max_queue", "shed_policy"]

CONFIG_FIELDS = [
    (SpeculatorConfig, ["interval_s", "max_compiles_per_cycle", "neighbors"]),
    (
        SpecializerConfig,
        [
            "interval_s", "hot_threshold", "max_per_kernel",
            "max_promotions_per_cycle", "decay", "decay_every_cycles",
            "quarantine_cycles",
        ],
    ),
    (DiagConfig, ["port", "host", "slos", "slo_tick_s", "ready_shed_rate"]),
]

PINNED_FAULT_SITES = ("compile", "worker.execute")


def _settable(fn):
    names = []
    for param in inspect.signature(fn).parameters.values():
        if param.kind is param.VAR_KEYWORD:
            names.append(f"**{param.name}")
        elif param.default is not param.empty:
            names.append(param.name)
    return names


@pytest.mark.parametrize(
    "fn, expected", CENSUS, ids=[fn.__qualname__ for fn, _ in CENSUS]
)
def test_keyword_parameters_are_pinned(fn, expected):
    assert _settable(fn) == expected


def test_compile_options_fields_are_pinned():
    fields = [field.name for field in dataclasses.fields(CompileOptions)]
    assert fields == COMPILE_OPTIONS_FIELDS


def test_verify_policies_are_pinned():
    assert [policy.value for policy in VerifyPolicy] == VERIFY_POLICIES


def test_resilience_config_fields_are_pinned():
    fields = [field.name for field in dataclasses.fields(ResilienceConfig)]
    assert fields == RESILIENCE_CONFIG_FIELDS


@pytest.mark.parametrize(
    "config, expected", CONFIG_FIELDS,
    ids=[config.__name__ for config, _ in CONFIG_FIELDS],
)
def test_config_fields_are_pinned(config, expected):
    assert [field.name for field in dataclasses.fields(config)] == expected


def test_fault_sites_are_pinned():
    assert FAULT_SITES == PINNED_FAULT_SITES
