"""Events and event arrays (paper Figure 7, section 4.1).

An event's type is either unit — a single completion — or an array of
completions with one dimension per enclosing (flattened) parallel loop,
each dimension annotated with the processor kind whose iterations it
indexes. Consumers reference events through :class:`EventUse`, which
carries one index per dimension: a symbolic expression selects a single
completion (a point-wise dependence), while :data:`BROADCAST` selects
*all* completions along the dimension (a synchronization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.errors import IRError
from repro.machine.processor import ProcessorKind
from repro.numbering import next_number
from repro.sym import Expr, to_expr

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.ops import Operation


class _Broadcast:
    """The ``[:]`` event-index operator (singleton)."""

    _instance: Optional["_Broadcast"] = None

    def __new__(cls) -> "_Broadcast":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return ":"


BROADCAST = _Broadcast()

EventIndex = Union[Expr, _Broadcast]


@dataclass(frozen=True)
class EventDim:
    """One dimension of an event array: extent and processor kind."""

    extent: int
    proc: ProcessorKind

    def __post_init__(self) -> None:
        if self.extent < 1:
            raise IRError(f"event dimension extent must be >= 1: {self}")

    def __repr__(self) -> str:
        return f"({self.extent},{self.proc.name})"


#: Unit type is the empty tuple; arrays are tuples of EventDim.
EventType = Tuple[EventDim, ...]


class Event:
    """An SSA event value produced by one operation."""

    def __init__(self, type_: EventType = ()):
        self.type: EventType = tuple(type_)
        self.name = f"e{next_number('event')}"
        #: Back-reference filled in when an operation adopts this event.
        self.producer: Optional["Operation"] = None

    @property
    def rank(self) -> int:
        return len(self.type)

    @property
    def is_unit(self) -> bool:
        return not self.type

    def use(self, *indices: EventIndex) -> "EventUse":
        """Reference this event with explicit per-dimension indices."""
        return EventUse(self, tuple(indices))

    def use_all(self) -> "EventUse":
        """Reference this event broadcast along every dimension."""
        return EventUse(self, tuple(BROADCAST for _ in self.type))

    def __repr__(self) -> str:
        if self.is_unit:
            return f"{self.name}:()"
        dims = ",".join(repr(d) for d in self.type)
        return f"{self.name}:[{dims}]"


class EventUse:
    """A reference to an event with one index per array dimension."""

    def __init__(self, event: Event, indices: Tuple[EventIndex, ...] = ()):
        if len(indices) != event.rank:
            raise IRError(
                f"event {event.name} has rank {event.rank} but was indexed "
                f"with {len(indices)} indices"
            )
        normalized = []
        for index in indices:
            if isinstance(index, _Broadcast):
                normalized.append(BROADCAST)
            else:
                normalized.append(to_expr(index))
        self.event = event
        self.indices: Tuple[EventIndex, ...] = tuple(normalized)

    @property
    def is_broadcast(self) -> bool:
        """True when any dimension is indexed with ``[:]``."""
        return any(i is BROADCAST for i in self.indices)

    @property
    def broadcast_dims(self) -> Tuple[EventDim, ...]:
        """The event dimensions collapsed by broadcast indexing."""
        return tuple(
            dim
            for dim, index in zip(self.event.type, self.indices)
            if index is BROADCAST
        )

    def promoted(self, dim: EventDim, index: EventIndex) -> "EventUse":
        """This use with one more leading dimension (vectorization)."""
        return EventUse(self.event, (index,) + self.indices)

    def __repr__(self) -> str:
        if not self.indices:
            return self.event.name
        inner = ",".join(repr(i) for i in self.indices)
        return f"{self.event.name}[{inner}]"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EventUse)
            and other.event is self.event
            and other.indices == self.indices
        )

    def __hash__(self) -> int:
        return hash((id(self.event), self.indices))
