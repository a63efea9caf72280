"""What a compile key is made of must not depend on the process.

``MappingSpec.fingerprint`` keys task bodies and externals by content:
a memoised digest per code object plus, read live, whatever the body
captures. A captured helper or ``functools.partial`` is keyed by its
own content; a value whose only repr is ``<... at 0x7f...>`` has no
content key and is refused rather than guessed. The disk tier relies
on this: a restarted server must compute the keys its predecessor
stored under. A key covers exactly the externals the mapped leaves name
as string literals, and no docstring.
"""

import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.compiler import dependence
from repro.errors import MappingError, TraceError
from repro.frontend import (
    CallExternalStmt, Inner, Leaf, MappingSpec, TaskMapping, TaskRegistry,
    call_external, launch, trace_variant,
)
from repro.frontend import mapping as mapping_module
from repro.frontend.mapping import canonicalize
from repro.kernels import KERNEL_BUILDERS
from repro.machine.memory import MemoryKind
from repro.machine.processor import ProcessorKind
from repro.runtime import default_registry
from repro.tensors import LogicalTensor, f16

SRC = Path(__file__).resolve().parents[1] / "src"


def scale(x, factor, offset=0):
    x[...] = x * factor + offset


def make_spec(machine, helper=scale, bound=3, captured=None, kinds=("a", "b")):
    """A two-task program whose external closes over a helper function,
    a partial of it, and ``captured``."""
    twice = functools.partial(helper, factor=bound)

    def fill(x):
        helper(x, 1)
        twice(x)
        return captured, "a" in {"a", "b", "c"}, kinds

    return program(machine, fill)


def writer():
    def writer_leaf(x):
        call_external("fill", x)

    return writer_leaf


def program(machine, fill, leaf=writer, **external):
    """A program whose one leaf, ``leaf()``, calls the external
    ``"fill"`` — ``fill`` registered with ``external``'s keywords."""
    reg = TaskRegistry()
    reg.external_function("fill", **{"cost_kind": "simt", **external})(fill)
    reg.task("writer", Leaf, writes=["x"])(leaf())

    @reg.task("prog", Inner, writes=["x"])
    def prog_host(x):
        launch("writer", x)

    return MappingSpec(
        [
            TaskMapping(
                instance="prog", variant="prog_host",
                proc=ProcessorKind.HOST, mems=(MemoryKind.GLOBAL,),
                entrypoint=True, calls=("writer",),
            ),
            TaskMapping(
                instance="writer", variant="writer_leaf",
                proc=ProcessorKind.BLOCK, mems=(MemoryKind.GLOBAL,),
            ),
        ],
        reg,
        machine,
    )


#: Run in a fresh interpreter: the keys of the six registered families'
#: default builds and of ``make_spec`` (a helper, a partial, a set).
_KEYS_SCRIPT = """
import json, sys
sys.path.insert(0, {tests!r})
from repro.compiler.pipeline import compile_key_for
from repro.kernels import KERNEL_BUILDERS
from repro.machine import hopper_machine
from repro.runtime import default_registry
from test_fingerprint_keys import make_spec

machine = hopper_machine()
registry = default_registry()
keys = {{}}
for family in sorted(KERNEL_BUILDERS):
    registered = registry.get(family)
    shape = {{d: registered.policy.ladders[d][0] for d in registered.dims}}
    build = registered.build(machine, registered.bucket(shape))
    keys[family] = compile_key_for(build)
keys["closure"] = make_spec(
    machine, kinds=frozenset({{"x", "y", "z"}})
).fingerprint()
print(json.dumps(keys))
"""


def _keys_in_fresh_interpreter(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    script = _KEYS_SCRIPT.format(tests=str(Path(__file__).parent))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    return json.loads(out.stdout)


class TestKeysAcrossProcesses:
    def test_two_interpreters_compute_the_same_keys(self):
        first = _keys_in_fresh_interpreter(1)
        second = _keys_in_fresh_interpreter(2)
        assert len(first) == 7
        assert first == second


class TestCapturedValues:
    def test_helper_and_partial_are_keyed_by_content(self, hopper):
        def scale_differently(x, factor, offset=0):
            x[...] = x * factor - offset

        base = make_spec(hopper).fingerprint()
        assert make_spec(hopper).fingerprint() == base
        assert make_spec(hopper, helper=scale_differently).fingerprint() != base
        assert make_spec(hopper, bound=4).fingerprint() != base
        assert make_spec(hopper, captured=[1, {2: "two"}]).fingerprint() != base

    def test_captured_values_are_read_live(self, hopper):
        state = {"gain": 1}
        spec = make_spec(hopper, captured=state)
        before = spec.fingerprint()
        assert spec.fingerprint() == before
        state["gain"] = 2  # the code digest is memoised, this is not
        assert spec.fingerprint() != before

    def test_recursive_helper_terminates(self, hopper):
        def countdown(x, factor, offset=0):
            return countdown(x, factor - 1) if factor else x

        spec = make_spec(hopper, helper=countdown)
        assert spec.fingerprint() == spec.fingerprint()

    def test_an_address_is_refused_not_hashed(self, hopper):
        class Opaque:
            pass

        spec = make_spec(hopper, captured=Opaque())
        with pytest.raises(MappingError) as refused:
            spec.fingerprint()
        message = str(refused.value)
        assert "external 'fill'" in message and "'captured'" in message
        assert "0x" in message  # quotes the offending repr


def ones(x):
    x[...] = 1


def documented_ones(x):
    """Set every element of ``x`` to one."""
    x[...] = 1


def redocumented_ones(x):
    """Fill ``x`` with ones.

        A longer docstring, its continuation lines at a deeper indent.
        """
    x[...] = 1


def twos(x):
    x[...] = 2


def documented_writer():
    def writer_leaf(x):
        """Fill ``x``."""
        call_external("fill", x)

    return writer_leaf


def redocumented_writer():
    def writer_leaf(x):
        """Fill ``x`` through the ``fill`` external, whose name is the
            one literal the key reads from this body."""
        call_external("fill", x)

    return writer_leaf


def one_flop(shapes):
    return 1


class TestKeyCoversWhatTheProgramNames:
    def test_an_unrelated_registration_moves_no_key(self, hopper):
        spec = program(hopper, ones, flops_fn=one_flop)
        before = spec.fingerprint()
        spec.registry.external_function("unrelated", cost_kind="nop")(twos)
        assert spec.fingerprint() == before

        @spec.registry.task("other", Leaf, writes=["x"])
        def other_leaf(x):
            call_external("unrelated", x)

        assert spec.fingerprint() == before

    def test_a_docstring_edit_moves_no_key(self, hopper):
        # Adding or removing a docstring may move the key: the bytecode
        # numbers its constants differently. Editing one may not.
        before = program(
            hopper, documented_ones, leaf=documented_writer
        ).fingerprint()
        assert program(
            hopper, redocumented_ones, leaf=documented_writer
        ).fingerprint() == before
        assert program(
            hopper, documented_ones, leaf=redocumented_writer
        ).fingerprint() == before

    @pytest.mark.parametrize("change", [
        dict(fill=twos),
        dict(cost_kind="nop"),
        dict(collective=True),
        dict(flops_fn=lambda shapes: 2),
    ], ids=["body", "cost_kind", "collective", "flops_fn"])
    def test_a_called_external_moves_the_key(self, hopper, change):
        base = dict(fill=ones, flops_fn=one_flop)
        assert program(hopper, **{**base, **change}).fingerprint() != (
            program(hopper, **base).fingerprint()
        )

    def test_a_name_that_is_no_literal_is_refused(self, hopper):
        name = "fill"

        def indirect():
            def writer_leaf(x):
                call_external(name, x)

            return writer_leaf

        spec = program(hopper, ones, leaf=indirect)
        leaf = spec.registry.variant("writer_leaf")
        tensor = LogicalTensor("x", (8, 8), f16)
        with pytest.raises(TraceError, match="'writer_leaf'"):
            trace_variant(leaf, [tensor], {}, spec.registry)

    @pytest.mark.parametrize("family", sorted(KERNEL_BUILDERS))
    def test_the_hashed_externals_are_the_called_ones(
        self, hopper, family, monkeypatch
    ):
        registered = default_registry().get(family)
        shape = {d: registered.policy.ladders[d][0] for d in registered.dims}
        build = registered.build(hopper, registered.bucket(shape))
        hashed, called = set(), set()
        real_key, real_trace = mapping_module._function_key, trace_variant

        def spy_key(value, where, *args):
            hashed.update(re.findall(r"^external '(\w+)'$", where))
            return real_key(value, where, *args)

        def spy_trace(*args):
            trace = real_trace(*args)
            called.update(
                stmt.function for stmt in trace.statements
                if isinstance(stmt, CallExternalStmt)
            )
            return trace

        monkeypatch.setattr(mapping_module, "_function_key", spy_key)
        monkeypatch.setattr(dependence, "trace_variant", spy_trace)
        build.spec.fingerprint()
        dependence.DependenceAnalysis(build.spec, build.name).run(
            build.arg_shapes, build.arg_dtypes, build.scalar_args
        )
        assert called and hashed == called


class TestCanonicalize:
    def test_mixed_type_keys_sort(self):
        mixed = {1: "one", "a": 2, None: 3, 2.5: 4}
        assert canonicalize(mixed) == canonicalize(dict(reversed(mixed.items())))
        assert [item[0] for item in canonicalize(mixed)] == [
            "1", "2.5", "None", "a",
        ]

    def test_keys_colliding_after_str_stay_distinct(self):
        assert canonicalize({1: "x"}) != canonicalize({"1": "x"})
        both = canonicalize({1: "int", "1": "str"})
        assert len(both) == 2
        assert both == canonicalize({"1": "str", 1: "int"})
        assert {item[2] for item in both} == {"int", "str"}
