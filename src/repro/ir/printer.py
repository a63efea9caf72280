"""Textual form of the IR, in the style of the paper's Figure 8b.

Annotations print only where a pass moved them off their default —
``@dma`` on an operation, ``pipe=N`` on a loop, ``war(N: e1,e2)`` on a
pipelined copy (it waits for those events of iteration ``k - N``),
``+offset`` on an allocated shared buffer — so the final IR differs from
the post-copy-elim text by exactly what ``allocate-shared`` and
``warp-specialize`` decided.
"""

from __future__ import annotations

from typing import List

from repro.ir.ops import AllocOp, Block, CallOp, CopyOp, ForOp, Operation, PForOp


def _format_event_decl(op: Operation) -> str:
    if op.result is None:
        return ""
    event = op.result
    if event.is_unit:
        return f"{event.name} : () = "
    dims = ",".join(repr(d) for d in event.type)
    return f"{event.name} : [{dims}] = "


def _format_preconds(op: Operation) -> str:
    """The precondition set, then the warp role unless it is the default."""
    inner = ", ".join(repr(use) for use in op.preconds)
    role = "" if op.role == "compute" else f" @{op.role}"
    return "{" + inner + "}" + role


def format_op(op: Operation, indent: int = 0) -> str:
    """Format one operation (and nested blocks) as text."""
    pad = "  " * indent
    decl = _format_event_decl(op)
    if isinstance(op, AllocOp):
        return f"{pad}{op.buffer!r}"
    if isinstance(op, CopyOp):
        war = ""
        if op.war_distance:
            events = ",".join(c.result.name for c in op.war_consumers)
            war = f" war({op.war_distance}: {events})"
        return (
            f"{pad}{decl}copy({op.src!r}, {op.dst!r}), "
            f"{_format_preconds(op)}{war}"
        )
    if isinstance(op, CallOp):
        args = ", ".join(repr(a) for a in op.args)
        proc = f" @{op.proc.name.lower()}" if op.proc else ""
        return (
            f"{pad}{decl}call({op.function}, {args}){proc}, "
            f"{_format_preconds(op)}"
        )
    if isinstance(op, (ForOp, PForOp)):
        kind = "pfor" if isinstance(op, PForOp) else "for"
        proc = f" @{op.proc.name.lower()}" if isinstance(op, PForOp) else ""
        if isinstance(op, ForOp) and op.pipeline > 1:
            proc = f" pipe={op.pipeline}"
        head = (
            f"{pad}{decl}{kind} {op.index.name} in [0, {op.extent})"
            f"{proc}, {_format_preconds(op)} do"
        )
        lines = [head]
        lines.extend(format_block(op.body, indent + 1))
        return "\n".join(lines)
    return f"{pad}{decl}<unknown op {type(op).__name__}>"


def format_block(block: Block, indent: int = 0) -> List[str]:
    lines = [format_op(op, indent) for op in block.ops]
    pad = "  " * indent
    if block.yield_use is not None:
        lines.append(f"{pad}yield {block.yield_use!r}")
    return lines


def print_function(fn) -> str:
    """Render a whole :class:`IRFunction` as text."""
    lines = [f"func {fn.name} (machine {fn.machine.name}):"]
    for param in fn.params:
        lines.append(f"  param {param!r}")
    for buffer in fn.live_buffers():
        if not buffer.is_argument:
            lines.append(f"  {buffer!r}")
    lines.append("  body:")
    lines.extend(format_block(fn.body, indent=2))
    return "\n".join(lines)
