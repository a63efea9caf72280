"""Mapping specifications (paper section 3.3, Figure 5b).

A mapping specification statically instantiates a tree of task instances.
Each instance names a task variant, a processor level, a memory per
tensor argument, tunable bindings, and the instances its child launches
dispatch to. Mapping decisions can only affect performance, never
correctness; this module validates structural consistency and the
machine-visibility rules.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import re
import types
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import MappingError
from repro.frontend.task import TaskRegistry, TaskVariant, body_constants
from repro.machine.machine import MachineModel
from repro.machine.memory import MemoryKind
from repro.machine.processor import ProcessorKind, depth_of


#: What ``object.__repr__`` leaves in a string: an address, different in
#: every process and reusable within one.
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def _code_digest(code: types.CodeType, digests: Dict[int, Any]) -> str:
    """The content digest of a code object (nested ones included),
    hashed once: code is immutable and ``digests`` — the registry's
    memo — holds it alive under its ``id``. A docstring is read as
    ``None``; a ``frozenset`` is sorted: its repr follows the hash seed."""
    entry = digests.get(id(code))
    if entry is None:
        consts = tuple(
            _code_digest(const, digests)
            if isinstance(const, types.CodeType)
            else sorted(map(repr, const))
            if isinstance(const, frozenset)
            else repr(const)
            for const in body_constants(code)
        )
        payload = repr((code.co_code.hex(), consts, code.co_names)).encode()
        entry = digests[id(code)] = (code, hashlib.sha256(payload).hexdigest())
    return entry[1]


def _function_key(
    value: Any, where: str, digests: Dict[int, Any], stack: Tuple[int, ...] = ()
) -> Any:
    """A content key for a traced function or a value it captures.

    A function is the memoised digest of its bytecode plus — read live
    on every call — its closure cells and defaults, so redefining a task
    body under the same names, or parameterizing it through a captured
    variable, changes the key. Captured functions recurse, a
    ``functools.partial`` is its function and bound arguments,
    containers go element-wise, the rest by ``repr``. ``where`` names
    the variant or external in the error.

    Raises:
        MappingError: the repr carries a memory address — a key that
            cannot be computed is not guessed.
    """
    if isinstance(value, functools.partial):
        value = ("partial", value.func, value.args, value.keywords)
    code = getattr(value, "__code__", None)
    if code is not None:
        digest = _code_digest(code, digests)
        cells = getattr(value, "__closure__", None) or ()
        defaults = getattr(value, "__defaults__", None) or ()
        keywords = getattr(value, "__kwdefaults__", None) or {}
        if id(value) in stack or not (cells or defaults or keywords):
            return digest  # nothing captured, or a helper recursing
        names = code.co_varnames[: code.co_argcount][-len(defaults):]
        captured = list(zip(code.co_freevars, (c.cell_contents for c in cells)))
        captured += [*zip(names, defaults), *sorted(keywords.items())]
        stack += (id(value),)
        return (digest,) + tuple(
            _function_key(item, f"{where}: captured {name!r}", digests, stack)
            for name, item in captured
        )
    if isinstance(value, (list, tuple)):
        return tuple(_function_key(v, where, digests, stack) for v in value)
    if isinstance(value, (set, frozenset, dict)):
        items = value.items() if isinstance(value, dict) else value
        return sorted(repr(_function_key(v, where, digests, stack)) for v in items)
    text = repr(value)
    if not isinstance(value, str) and _ADDRESS.search(text):
        raise MappingError(
            f"{where} has no content key: the repr {text} carries a memory "
            "address. Capture a function, a functools.partial, or a value "
            "with a stable repr"
        )
    return text


def canonicalize(value: Any) -> Any:
    """A deterministic, repr-stable view of a mapping-level value.

    Dicts are sorted by their emitted key — ``str(key)`` tagged with the
    key's type name, so mixed-type keys sort and ``1`` / ``"1"`` stay
    distinct — sequences become tuples, and enum members collapse to
    ``ClassName.MEMBER`` so the result is independent of insertion
    order and interpreter session. Anything else falls back to ``repr``.
    """
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, dict):
        return tuple(sorted(
            (
                (str(k), type(k).__name__, canonicalize(v))
                for k, v in value.items()
            ),
            key=lambda item: item[:2],
        ))
    if isinstance(value, (list, tuple)):
        return tuple(canonicalize(v) for v in value)
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


@dataclass
class TaskMapping:
    """One instance of a task variant bound to the machine.

    Attributes:
        instance: unique name of this instance.
        variant: the task variant the instance executes.
        proc: processor level the variant runs at.
        mems: memory placement per tensor argument, in parameter order.
        tunables: values for the variant's tunables.
        calls: instance names child launches dispatch to; a launch of
            task ``T`` dispatches to the unique entry in ``calls`` whose
            variant implements ``T``.
        entrypoint: True for the root of the task tree.
        warpspecialize: split this instance's body into DMA and compute
            warps (section 4.2.5).
        pipeline: software-pipeline depth for this instance's main loop.
        smem_limit_bytes: per-thread-block shared memory bound for the
            resource allocator (section 4.2.4); None means the machine's
            full shared memory.
    """

    instance: str
    variant: str
    proc: ProcessorKind
    mems: Tuple[MemoryKind, ...]
    tunables: Dict[str, Any] = field(default_factory=dict)
    calls: Tuple[str, ...] = ()
    entrypoint: bool = False
    warpspecialize: bool = False
    pipeline: int = 1
    smem_limit_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        self.mems = tuple(self.mems)
        self.calls = tuple(self.calls)
        if self.pipeline < 1:
            raise MappingError(
                f"instance {self.instance!r}: pipeline depth must be >= 1"
            )

    def content_key(self) -> Tuple[Any, ...]:
        """A canonical, hashable view of every mapping decision.

        Used by the compile cache: two ``TaskMapping`` objects with the
        same content key produce identical compiler output (mapping
        decisions can only affect performance, never correctness, but
        they fully determine the generated kernel).
        """
        return (
            self.instance,
            self.variant,
            canonicalize(self.proc),
            canonicalize(self.mems),
            canonicalize(self.tunables),
            self.calls,
            self.entrypoint,
            self.warpspecialize,
            self.pipeline,
            self.smem_limit_bytes,
        )


class MappingSpec:
    """A validated set of task mappings forming an instance tree."""

    def __init__(
        self,
        mappings: Sequence[TaskMapping],
        registry: TaskRegistry,
        machine: MachineModel,
    ):
        self.registry = registry
        self.machine = machine
        self.by_instance: Dict[str, TaskMapping] = {}
        for mapping in mappings:
            if mapping.instance in self.by_instance:
                raise MappingError(
                    f"duplicate task-mapping instance {mapping.instance!r}"
                )
            self.by_instance[mapping.instance] = mapping
        self._validate()

    # ------------------------------------------------------------------
    @property
    def entrypoint(self) -> TaskMapping:
        roots = [m for m in self.by_instance.values() if m.entrypoint]
        if len(roots) != 1:
            raise MappingError(
                f"a mapping needs exactly one entrypoint, found {len(roots)}"
            )
        return roots[0]

    def instance(self, name: str) -> TaskMapping:
        if name not in self.by_instance:
            raise MappingError(
                f"unknown task-mapping instance {name!r}; known instances: "
                f"{sorted(self.by_instance)}"
            )
        return self.by_instance[name]

    def variant_of(self, mapping: TaskMapping) -> TaskVariant:
        return self.registry.variant(mapping.variant)

    def dispatch(
        self,
        caller: TaskMapping,
        task_name: str,
        hint: Optional[str] = None,
    ) -> TaskMapping:
        """The child instance a launch of ``task_name`` dispatches to.

        ``hint`` (from ``launch(..., to=...)``) selects among multiple
        instances of the same task by instance-name suffix.
        """
        matches = []
        for name in caller.calls:
            child = self.instance(name)
            if self.variant_of(child).task_name == task_name:
                matches.append(child)
        if hint is not None:
            hinted = [m for m in matches if m.instance.endswith(hint)]
            if not hinted:
                raise MappingError(
                    f"instance {caller.instance!r} launches task "
                    f"{task_name!r} with hint {hint!r}, but no call target "
                    f"matches; targets: {[m.instance for m in matches]}"
                )
            matches = hinted
        if not matches:
            raise MappingError(
                f"instance {caller.instance!r} launches task {task_name!r} "
                f"but its calls list {list(caller.calls)} has no instance "
                "of that task"
            )
        if len(matches) > 1:
            raise MappingError(
                f"instance {caller.instance!r} has multiple call targets "
                f"for task {task_name!r}: "
                f"{[m.instance for m in matches]}"
            )
        return matches[0]

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for mapping in self.by_instance.values():
            variant = self.variant_of(mapping)  # raises if unknown
            if not self.machine.has_level(mapping.proc):
                raise MappingError(
                    f"instance {mapping.instance!r} targets processor "
                    f"{mapping.proc.name}, absent from machine "
                    f"{self.machine.name}"
                )
            tensor_params = variant.tensor_params
            if len(mapping.mems) != len(tensor_params):
                raise MappingError(
                    f"instance {mapping.instance!r} maps {len(mapping.mems)} "
                    f"memories but variant {variant.variant_name!r} has "
                    f"{len(tensor_params)} tensor parameters "
                    f"({', '.join(tensor_params)})"
                )
            for param, mem in zip(tensor_params, mapping.mems):
                if mem is MemoryKind.NONE:
                    continue
                if not self.machine.is_visible(mem, mapping.proc):
                    raise MappingError(
                        f"instance {mapping.instance!r} places {param!r} in "
                        f"{mem.name}, not visible from {mapping.proc.name}"
                    )
            for callee_name in mapping.calls:
                callee = self.instance(callee_name)
                if depth_of(callee.proc) < depth_of(mapping.proc):
                    raise MappingError(
                        f"instance {mapping.instance!r} at "
                        f"{mapping.proc.name} calls {callee_name!r} at the "
                        f"shallower level {callee.proc.name}"
                    )
            if variant.is_leaf and mapping.calls:
                raise MappingError(
                    f"leaf instance {mapping.instance!r} must not list calls"
                )
        root = self.entrypoint  # raises unless exactly one
        if root.proc is not ProcessorKind.HOST:
            raise MappingError(
                f"the entrypoint {root.instance!r} must run on HOST, got "
                f"{root.proc.name}"
            )
        self._check_acyclic(root.instance, ())

    def _check_acyclic(self, name: str, stack: Tuple[str, ...]) -> None:
        if name in stack:
            cycle = " -> ".join(stack + (name,))
            raise MappingError(f"task-mapping instances form a cycle: {cycle}")
        mapping = self.instance(name)
        for child in mapping.calls:
            self._check_acyclic(child, stack + (name,))

    def smem_limit(self, mapping: TaskMapping) -> int:
        """Effective shared-memory bound for an instance's thread block."""
        if mapping.smem_limit_bytes is not None:
            return mapping.smem_limit_bytes
        return self.machine.memory(MemoryKind.SHARED).capacity_bytes

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """A content hash of the program, the mapping, and the machine.

        Covers every mapping decision, the machine description, and the
        *logical program itself* — the bodies of the task variants the
        instances reference and of the externals their leaves name
        (:attr:`TaskVariant.literals`), docstrings aside — so programs
        reusing names cannot collide in the cache. Every mapping, the
        machine, and each body's captured values and defaults are read
        from their *current* contents on every call, so mutating a
        ``TaskMapping`` (or a variable a task body closes over) after
        building the spec changes the fingerprint; only the digest of a
        code object, which cannot change, is hashed once and kept on
        the registry (:attr:`TaskRegistry.code_digests`).
        """
        digests = self.registry.code_digests
        machine_key = self.machine.content_key()
        instance_keys = tuple(
            self.by_instance[name].content_key()
            for name in sorted(self.by_instance)
        )
        variants = [
            self.registry.variant(name)
            for name in sorted({m.variant for m in self.by_instance.values()})
        ]
        variant_keys = tuple(
            (
                variant.task_name,
                variant.variant_name,
                variant.kind,
                variant.params,
                tuple(sorted(
                    (p, str(priv))
                    for p, priv in variant.privileges.items()
                )),
                _function_key(
                    variant.fn, f"variant {variant.variant_name!r}", digests
                ),
            )
            for variant in variants
        )
        named = set().union(*(v.literals for v in variants if v.is_leaf))
        external_keys = tuple(
            (
                name,
                ext.cost_kind,
                ext.collective,
                _function_key(ext.numpy_impl, f"external {name!r}", digests),
                _function_key(ext.flops_fn, f"external {name!r}", digests)
                if ext.flops_fn
                else None,
            )
            for name, ext in sorted(self.registry.externals.items())
            if name in named
        )
        payload = repr(
            (machine_key, instance_keys, variant_keys, external_keys)
        ).encode()
        return hashlib.sha256(payload).hexdigest()
