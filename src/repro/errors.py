"""Exception hierarchy for the Cypress reproduction.

Every user-facing failure raised by the frontend, the compiler, or the
simulator derives from :class:`CypressError`, so callers can catch one type
to handle any model-level problem while letting genuine bugs (``TypeError``
and friends) propagate.
"""

from __future__ import annotations


class CypressError(Exception):
    """Base class for all errors raised by this package."""


class MachineError(CypressError):
    """An inconsistent machine description (bad hierarchy or visibility)."""


class TensorError(CypressError):
    """Illegal tensor construction, indexing, or dtype use."""


class PartitionError(TensorError):
    """Illegal partitioning request (bad block shape, bad index)."""


class PrivilegeError(CypressError):
    """A task violated its declared privileges (see paper section 3.2)."""


class TraceError(CypressError):
    """The frontend tracer observed an illegal program construct."""


class TunableError(TraceError):
    """A tunable was requested but not bound by the mapping specification."""


class MappingError(CypressError):
    """An inconsistent mapping specification (see paper section 3.3)."""


class IRError(CypressError):
    """Malformed IR: SSA violations, dangling events, bad block structure."""


class VerificationError(IRError):
    """The IR verifier rejected a module."""


class CompileError(CypressError):
    """A compiler pass could not lower the program."""


class AllocationError(CompileError):
    """Shared-memory allocation failed.

    Raised when even the original (fully relaxed) interference graph does
    not fit the per-block shared-memory bound, mirroring the out-of-memory
    report described in paper section 4.2.4.
    """


class SimulationError(CypressError):
    """The GPU simulator was given an inconsistent schedule."""


class FunctionalError(CypressError):
    """The functional (numpy) executor hit an inconsistency."""
