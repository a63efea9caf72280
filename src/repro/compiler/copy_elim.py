"""Copy elimination (paper section 4.2.3, Figure 10).

Runs after vectorization, exactly as in the paper — flattening implicit
parallel loops first is what brings copy-in/copy-out pairs into the same
block so the spill patterns can see them.

The copy-in/copy-out discipline of the dependence analysis introduces a
fresh allocation and copies around every task launch; this pass rewrites
them away:

* **self copy elimination** (Fig. 10d) — ``copy(t, t)`` disappears.
* **round-trip (spill) elimination** (Fig. 10a) — a whole-temporary
  copy-in ``copy(R, T)`` paired with a copy-out ``copy(T, R)`` aliases
  ``T`` onto ``R``; both copies and their synchronization collapse,
  leaving only point-wise dependencies between the surrounding blocks.
* **copy-in forwarding** — a copy into a whole temporary in the same
  memory (or the virtual NONE memory) that is never written again is a
  renaming; later references recompose onto the source.
* **copy-out forwarding** — symmetric: a whole temporary drained by a
  single copy-out retargets its writers onto the destination.
* **duplicate elimination** (Fig. 10c) — a repeated copy with no
  intervening write is dropped, keeping the first copy's event.
* **spill hoisting** (Fig. 10b) — a loop-invariant copy-in/copy-out pair
  around a loop's working buffer moves to the loop preamble/postamble.

The patterns and their priority are the specification: spill patterns
come ahead of dependency-preserving ones so that event-array collapses
are elided where the paper says they may be. The driver is a
pattern-major fixed point, like MLIR's greedy pattern driver: each
pattern, in priority order, is applied to every block until it stops
matching there, then the next pattern runs, and the sweep repeats until
no pattern fires. Within a block most patterns resume at their last
match (a hoist at the loop it changed) instead of rescanning from the
top; the two forwardings rescan, because the tensor they rename may
make an earlier copy match. The order in which blocks are visited does
not change the result (``tests/test_copy_elim_order.py``); the pattern
priority does.

A rewrite never re-walks the function: :class:`_Uses`, built from one
walk per ``eliminate_copies`` call and dropped with it, records which
ops wait on each event, which ops reference each tensor, and how often
each tensor is read and written. The pass's mutation points
(``_remove``, ``_replace_buffer_refs``, the two hoists — all through
``_Uses.set_preconds``) keep it current. A hoist walks its loop's body
once, not once per candidate copy.

One side effect of the walk this replaces is kept on purpose, because
the printed IR depends on it: the *first* removal rebuilds **every**
op's precondition list with duplicates dropped, not only the lists that
name the removed event. From then on every list is duplicate-free and
only the removed event's users change, so only they are rewritten.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import DefaultDict, Dict, Iterable, List, Optional, Set

from repro.errors import CompileError
from repro.ir.events import BROADCAST, Event, EventUse
from repro.ir.module import Buffer, IRFunction
from repro.ir.ops import Block, CopyOp, ForOp, Operation
from repro.machine.memory import MemoryKind
from repro.machine.processor import ProcessorKind
from repro.sym import ProcIndex
from repro.tensors.mma_partition import MmaPartition
from repro.tensors.partition import (
    BlocksPartition,
    Partition,
    SqueezePartition,
)
from repro.tensors.tensor import TensorRef


#: Rewrites one ``eliminate_copies`` call may make, over all its sweeps,
#: before it gives up on reaching a fixed point (the default GEMM makes
#: 17, FA3 at 16x4096 makes 53).
REWRITE_LIMIT = 500


def eliminate_copies(fn: IRFunction) -> IRFunction:
    """Apply the rewrite patterns to a fixed point."""
    uses = _Uses(fn)
    while True:
        swept = uses.rewrites
        for pattern in _PATTERNS:
            for block in uses.blocks:
                resume: Optional[int] = 0
                while resume is not None:
                    resume = _rewrite(uses, pattern, block, resume)
        if uses.rewrites == swept:
            return fn


def _rewrite(uses: _Uses, pattern, block: Block, start: int) -> Optional[int]:
    """One step: ``pattern``'s first match in ``block`` from position
    ``start`` on, rewritten. Returns the position to resume from, or
    None when nothing matched."""
    resume = pattern(uses, block, start)
    if resume is not None:
        uses.rewrites += 1
        if uses.rewrites > REWRITE_LIMIT:
            raise CompileError("copy elimination did not reach a fixed point")
    return resume


def _op_refs(op: Operation) -> List[TensorRef]:
    """Every tensor reference an op holds (what a rename must rewrite)."""
    return [*op.tensor_uses(), *op.reads, *op.writes]


class _Uses:
    """Who uses what in ``fn``, kept current by the rewrites.

    Attributes:
        ops: every op in the function (a dict used as an ordered set).
        blocks: every block; the pass moves and removes only copies, so
            this never changes.
        waiters: event -> ops with a precondition on it.
        refs: tensor uid -> ops holding a reference rooted there.
        reads / writes: tensor uid -> how many of the ops' ``reads`` /
            ``writes`` entries are rooted there.
        deduplicated: a removal has already rebuilt every op's
            precondition list (see the module docstring).
        rewrites: how many rewrites the pass has made.
    """

    def __init__(self, fn: IRFunction):
        self.fn = fn
        self.ops: Dict[Operation, None] = dict.fromkeys(fn.walk())
        self.blocks: List[Block] = [fn.body]
        self.waiters: DefaultDict[Event, Set[Operation]] = defaultdict(set)
        self.refs: DefaultDict[int, Set[Operation]] = defaultdict(set)
        self.reads: DefaultDict[int, int] = defaultdict(int)
        self.writes: DefaultDict[int, int] = defaultdict(int)
        self.deduplicated = False
        self.rewrites = 0
        for op in self.ops:
            self.blocks.extend(op.nested_blocks())
            for use in op.preconds:
                self.waiters[use.event].add(op)
            for ref in _op_refs(op):
                self.refs[ref.root.uid].add(op)
            for ref in op.reads:
                self.reads[ref.root.uid] += 1
            for ref in op.writes:
                self.writes[ref.root.uid] += 1

    def set_preconds(self, op: Operation, preconds: List[EventUse]) -> None:
        for use in op.preconds:
            self.waiters[use.event].discard(op)
        op.preconds = preconds
        for use in preconds:
            self.waiters[use.event].add(op)

    def drop(self, op: Operation) -> None:
        """Forget an op that left the function."""
        del self.ops[op]
        for use in op.preconds:
            self.waiters[use.event].discard(op)
        for ref in _op_refs(op):
            self.refs[ref.root.uid].discard(op)
        for ref in op.reads:
            self.reads[ref.root.uid] -= 1
        for ref in op.writes:
            self.writes[ref.root.uid] -= 1

    def rename(self, uid: int, target: int) -> Set[Operation]:
        """Move everything recorded under tensor ``uid`` to ``target``;
        returns the ops whose references the caller must rewrite."""
        ops = self.refs.pop(uid, set())
        self.refs[target].update(ops)
        for counts in (self.reads, self.writes):
            counts[target] += counts.pop(uid, 0)
        return ops


# ----------------------------------------------------------------------
# Event forwarding
# ----------------------------------------------------------------------
def _broadcast_procs(outer: EventUse) -> Set[ProcessorKind]:
    return {
        dim.proc
        for dim, index in zip(outer.event.type, outer.indices)
        if index is BROADCAST
    }


def _adapt_use(pre: EventUse, broadcast_procs: Set[ProcessorKind]) -> EventUse:
    """Adapt a precondition use to stand in for an outer use.

    When the outer use broadcasts over some processor dimensions
    (``broadcast_procs``), the substituted precondition must broadcast
    over the same processors: point-wise processor indices introduced by
    vectorization are widened to BROADCAST in those dimensions.
    """
    if not broadcast_procs:
        return pre
    new_indices = []
    for index, dim in zip(pre.indices, pre.event.type):
        if (
            index is not BROADCAST
            and isinstance(index, ProcIndex)
            and dim.proc in broadcast_procs
        ):
            new_indices.append(BROADCAST)
        else:
            new_indices.append(index)
    return EventUse(pre.event, tuple(new_indices))


def _unique(uses: List[EventUse]) -> List[EventUse]:
    """``uses`` without repeats, keeping the first of equal ones.

    Equal uses name one event, so only uses of one event are compared:
    an insertion-ordered dict keyed by event (hashed by identity) holds
    the uses seen so far.
    """
    seen: Dict[Event, List[EventUse]] = {}
    out: List[EventUse] = []
    for use in uses:
        same = seen.setdefault(use.event, [])
        if use not in same:
            same.append(use)
            out.append(use)
    return out


def _forward_event(uses: _Uses, removed: Operation) -> None:
    """Redirect uses of a removed op's event onto its preconditions."""
    event = removed.result
    if event is None:
        return
    preconds = list(removed.preconds)
    waiting = uses.waiters.pop(event, set())
    if not uses.deduplicated:
        uses.deduplicated = True
        for op in uses.ops:
            if op not in waiting and len(op.preconds) > 1:
                op.preconds = _unique(op.preconds)
    for op in waiting:
        forwarded: List[EventUse] = []
        for use in op.preconds:
            if use.event is not event:
                forwarded.append(use)
            elif BROADCAST in use.indices:
                procs = _broadcast_procs(use)
                forwarded.extend([_adapt_use(pre, procs) for pre in preconds])
            else:
                forwarded.extend(preconds)
        op.preconds = _unique(forwarded)
    # Only the removed event's uses changed, so only the preconditions'
    # events gain waiters.
    for pre in preconds:
        uses.waiters[pre.event].update(waiting)
    for nested in uses.blocks:
        if nested.yield_use is not None and nested.yield_use.event is event:
            if preconds:
                nested.yield_use = _adapt_use(
                    preconds[-1], _broadcast_procs(nested.yield_use)
                )
            else:
                nested.yield_use = _previous_event_use(nested, removed)


def _previous_event_use(block: Block, removed: Operation) -> Optional[EventUse]:
    previous = None
    for op in block.ops:
        if op is removed:
            break
        if op.result is not None:
            previous = op
    if previous is None or previous.result is None:
        return None
    return previous.result.use_all()


def _remove(uses: _Uses, block: Block, op: Operation) -> None:
    _forward_event(uses, op)
    block.ops.remove(op)
    uses.drop(op)


# ----------------------------------------------------------------------
# Reference rebasing
# ----------------------------------------------------------------------
def _rebase_partition(partition: Partition, source: TensorRef) -> Partition:
    if isinstance(partition, BlocksPartition):
        return BlocksPartition(source, partition.block_shape)
    if isinstance(partition, MmaPartition):
        return MmaPartition(
            source, partition.atom, partition.proc, partition.operand
        )
    if isinstance(partition, SqueezePartition):
        return SqueezePartition(source)
    raise CompileError(f"cannot rebase partition kind {partition.kind!r}")


def _compose_ref(base: TensorRef, sub: TensorRef) -> TensorRef:
    """Re-root ``sub`` (a reference into a temporary) onto ``base``."""
    result = base
    for partition, index in sub.path:
        rebased = _rebase_partition(partition, result)
        result = TensorRef(result.root, result.path + ((rebased, index),))
    return result


def _replace_buffer_refs(uses: _Uses, buffer: Buffer, base: TensorRef) -> None:
    uid = buffer.tensor.uid

    def rewrite(ref: TensorRef) -> TensorRef:
        if ref.root.uid != uid:
            return ref
        return _compose_ref(base, ref)

    for op in uses.rename(uid, base.root.uid):
        op.map_refs(rewrite)


# ----------------------------------------------------------------------
# Patterns
# ----------------------------------------------------------------------
def _self_copy(uses: _Uses, block: Block, start: int) -> Optional[int]:
    ops = block.ops
    for i in range(start, len(ops)):
        op = ops[i]
        if not isinstance(op, CopyOp):
            continue
        if op.src.root.uid == op.dst.root.uid and _same_path(op.src, op.dst):
            _remove(uses, block, op)
            return i
    return None


def _is_renamable_temp(fn: IRFunction, ref: TensorRef) -> Optional[Buffer]:
    """The buffer behind a whole, non-argument reference (else None)."""
    if not ref.is_whole:
        return None
    buffer = fn.buffers.get(ref.root.uid)
    if buffer is None or buffer.is_argument:
        return None
    return buffer


def _memory_compatible(temp: Buffer, other: TensorRef, fn: IRFunction) -> bool:
    if temp.memory is MemoryKind.NONE:
        return True
    counterpart = fn.buffers.get(other.root.uid)
    return counterpart is not None and counterpart.memory is temp.memory


def _roundtrip_alias(uses: _Uses, block: Block, start: int) -> Optional[int]:
    """Figure 10a: alias a copy-in/copy-out temporary onto its source.

    Safe because the dependence analysis gave the launch exclusive
    (read-write) access to the source for the whole span between the two
    copies, so no other reader observes the intermediate states.
    """
    ops = block.ops
    for i in range(start, len(ops)):
        cin = ops[i]
        if not isinstance(cin, CopyOp):
            continue
        temp = _is_renamable_temp(uses.fn, cin.dst)
        if temp is None or not _memory_compatible(temp, cin.src, uses.fn):
            continue
        for cout in ops[i + 1 :]:
            if not isinstance(cout, CopyOp):
                continue
            if cout.src.root.uid != temp.tensor.uid or not cout.src.is_whole:
                continue
            if cout.dst.root.uid != cin.src.root.uid or not _same_path(
                cout.dst, cin.src
            ):
                continue
            _remove(uses, block, cout)
            _remove(uses, block, cin)
            _replace_buffer_refs(uses, temp, cin.src)
            return i
    return None


def _forward_copy_in(uses: _Uses, block: Block, start: int) -> Optional[int]:
    ops = block.ops
    for i in range(start, len(ops)):
        op = ops[i]
        if not isinstance(op, CopyOp):
            continue
        temp = _is_renamable_temp(uses.fn, op.dst)
        if temp is None or not _memory_compatible(temp, op.src, uses.fn):
            continue
        if uses.writes[temp.tensor.uid] != 1:
            continue
        _remove(uses, block, op)
        _replace_buffer_refs(uses, temp, op.src)
        return 0  # the rename can make an earlier copy match
    return None


def _forward_copy_out(uses: _Uses, block: Block, start: int) -> Optional[int]:
    ops = block.ops
    for i in range(start, len(ops)):
        op = ops[i]
        if not isinstance(op, CopyOp):
            continue
        temp = _is_renamable_temp(uses.fn, op.src)
        if temp is None or not _memory_compatible(temp, op.dst, uses.fn):
            continue
        if uses.reads[temp.tensor.uid] != 1:
            continue
        _remove(uses, block, op)
        _replace_buffer_refs(uses, temp, op.dst)
        return 0  # the rename can make an earlier copy match
    return None


def _duplicate_copy(uses: _Uses, block: Block, start: int) -> Optional[int]:
    ops = block.ops
    for i in range(start, len(ops)):
        first = ops[i]
        if not isinstance(first, CopyOp):
            continue
        for second in ops[i + 1 :]:
            if isinstance(second, CopyOp) and _same_copy(first, second):
                # Users of the duplicate wait on the first copy instead.
                surviving = first.result.use_all()
                uses.set_preconds(second, [surviving])
                _remove(uses, block, second)
                return i
            if _writes_buffer(second, first.src.root.uid) or _writes_buffer(
                second, first.dst.root.uid
            ):
                break
    return None


def _redundant_load(uses: _Uses, block: Block, start: int) -> Optional[int]:
    """Figure 10c generalized: two loads of the same data into distinct
    whole temporaries in the same memory share one allocation.

    This is what leaves Dual-GEMM with a single A-tile load per K step:
    both multiplications' copy-ins read the same ``Ap[0, k]``.
    """
    ops = block.ops
    for i in range(start, len(ops)):
        first = ops[i]
        if not isinstance(first, CopyOp):
            continue
        first_temp = _is_renamable_temp(uses.fn, first.dst)
        if first_temp is None or uses.writes[first_temp.tensor.uid] != 1:
            continue
        for second in ops[i + 1 :]:
            if _writes_buffer(second, first.src.root.uid):
                break
            if not isinstance(second, CopyOp):
                continue
            if second.src.root.uid != first.src.root.uid:
                continue
            if not _same_path(second.src, first.src):
                continue
            second_temp = _is_renamable_temp(uses.fn, second.dst)
            if second_temp is None or second_temp is first_temp:
                continue
            if second_temp.memory is not first_temp.memory:
                continue
            if uses.writes[second_temp.tensor.uid] != 1:
                continue
            # Consumers of the removed load must still wait on the
            # surviving load's completion.
            surviving = first.result.use_all()
            uses.set_preconds(second, [surviving])
            _remove(uses, block, second)
            _replace_buffer_refs(uses, second_temp, first.dst)
            return i
    return None


def _spill_hoist(uses: _Uses, block: Block, start: int) -> Optional[int]:
    """Figure 10b: hoist a loop-invariant copy round trip out of a loop.

    Matches ``copy(P, t) ... copy(t, P)`` inside a ``for`` body where
    both references are loop-index free and ``P`` has no other uses in
    the body; the pair becomes a preamble/postamble around the loop.
    A hoist leaves earlier loops' bodies alone, so the scan resumes at
    the loop it changed.
    """
    ops = block.ops
    for position in range(start, len(ops)):
        loop = ops[position]
        if not isinstance(loop, ForOp):
            continue
        body = loop.body
        used: Optional[Counter] = None
        for cin in body.ops:
            if not isinstance(cin, CopyOp):
                continue
            if loop.index.name in cin.src.free_variables():
                continue
            if loop.index.name in cin.dst.free_variables():
                continue
            cout = _matching_copy_out(body, cin)
            if cout is None:
                continue
            if used is None:
                used = _roots(
                    ref for op in body.walk() for ref in op.tensor_uses()
                )
            pair = _roots([*cin.tensor_uses(), *cout.tensor_uses()])
            if used[cin.src.root.uid] > pair[cin.src.root.uid]:
                continue  # P has another use in the body
            body.ops.remove(cin)
            body.ops.remove(cout)
            if body.yield_use is not None and body.yield_use.event in (
                cin.result,
                cout.result,
            ):
                body.yield_use = _previous_event_use(body, cout)
            # The copy-in keeps only loop-external preconditions and the
            # loop adds a dependence on it; in-body consumers of the
            # copy-in's event still reference it (now defined earlier).
            defined = _events_defined_in(body)
            uses.set_preconds(
                cin, [use for use in cin.preconds if use.event not in defined]
            )
            ops.insert(position, cin)
            position += 1
            # The copy-out waits for the loop to complete, plus any
            # loop-external anti-dependencies it already carried.
            external = [
                use for use in cout.preconds if use.event not in defined
            ]
            uses.set_preconds(cout, external + [loop.result.use()])
            ops.insert(position + 1, cout)
            if cin.result is not None:
                use = cin.result.use_all()
                if use not in loop.preconds:
                    uses.set_preconds(loop, loop.preconds + [use])
            return position
    return None


def _invariant_copy_hoist(
    uses: _Uses, block: Block, start: int
) -> Optional[int]:
    """Hoist a loop-invariant read-only copy-in out of a loop.

    A copy whose source and destination are loop-index free, whose
    destination is written by nothing else, and whose source is not
    written inside the loop produces the same bytes every iteration —
    it moves to the loop preamble (e.g. the Q tile of Flash Attention,
    loaded once and reused across all KV iterations). As in
    :func:`_spill_hoist`, the scan resumes at the loop it changed.
    """
    ops = block.ops
    for position in range(start, len(ops)):
        loop = ops[position]
        if not isinstance(loop, ForOp):
            continue
        body = loop.body
        written: Optional[Counter] = None
        for cin in body.ops:
            if not isinstance(cin, CopyOp):
                continue
            if loop.index.name in cin.src.free_variables():
                continue
            if loop.index.name in cin.dst.free_variables():
                continue
            dst_buffer = uses.fn.buffers.get(cin.dst.root.uid)
            if dst_buffer is None or dst_buffer.is_argument:
                continue
            if uses.writes[dst_buffer.tensor.uid] != 1:
                continue
            if written is None:
                written = _roots(
                    ref for op in body.walk() for ref in op.writes
                )
            uid = cin.src.root.uid
            if written[uid] > _roots(cin.writes)[uid]:
                continue  # the source is written inside the loop
            body.ops.remove(cin)
            if body.yield_use is not None and body.yield_use.event is (
                cin.result
            ):
                body.yield_use = _previous_event_use(body, cin)
            defined = _events_defined_in(body)
            uses.set_preconds(
                cin, [use for use in cin.preconds if use.event not in defined]
            )
            ops.insert(position, cin)
            if cin.result is not None:
                use = cin.result.use_all()
                if use not in loop.preconds:
                    uses.set_preconds(loop, loop.preconds + [use])
            return position + 1
    return None


def _matching_copy_out(body: Block, cin: CopyOp) -> Optional[CopyOp]:
    seen_cin = False
    for op in body.ops:
        if op is cin:
            seen_cin = True
            continue
        if not seen_cin or not isinstance(op, CopyOp):
            continue
        if (
            op.src.root.uid == cin.dst.root.uid
            and _same_path(op.src, cin.dst)
            and op.dst.root.uid == cin.src.root.uid
            and _same_path(op.dst, cin.src)
        ):
            return op
    return None


def _roots(refs: Iterable[TensorRef]) -> Counter:
    """Tensor uid -> how many of ``refs`` are rooted there."""
    return Counter(ref.root.uid for ref in refs)


def _events_defined_in(body: Block) -> Set[Event]:
    return {op.result for op in body.walk() if op.result is not None}


_PATTERNS = (
    _self_copy,
    _roundtrip_alias,
    _forward_copy_in,
    _forward_copy_out,
    _duplicate_copy,
    _redundant_load,
    _spill_hoist,
    _invariant_copy_hoist,
)


# ----------------------------------------------------------------------
# Structural helpers
# ----------------------------------------------------------------------
def _same_path(a: TensorRef, b: TensorRef) -> bool:
    if len(a.path) != len(b.path):
        return False
    for (pa, ia), (pb, ib) in zip(a.path, b.path):
        if type(pa) is not type(pb) or ia != ib:
            return False
        if isinstance(pa, BlocksPartition):
            if pa.block_shape != pb.block_shape:
                return False
        if isinstance(pa, MmaPartition):
            if (pa.atom, pa.proc, pa.operand) != (
                pb.atom,
                pb.proc,
                pb.operand,
            ):
                return False
    return True


def _same_copy(a: CopyOp, b: CopyOp) -> bool:
    return (
        a.src.root.uid == b.src.root.uid
        and a.dst.root.uid == b.dst.root.uid
        and _same_path(a.src, b.src)
        and _same_path(a.dst, b.dst)
    )


def _writes_buffer(op: Operation, uid: int) -> bool:
    """Whether ``op``, or an op nested in it, writes tensor ``uid``."""
    for ref in op.writes:
        if ref.root.uid == uid:
            return True
    for block in op.nested_blocks():
        for inner in block.ops:
            if _writes_buffer(inner, uid):
                return True
    return False
