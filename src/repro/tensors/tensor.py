"""Logical tensors and references to their sub-tensors.

A :class:`LogicalTensor` is a named multi-dimensional array with no
physical placement — placement comes from the mapping specification. A
:class:`TensorRef` denotes either a whole tensor or a sub-tensor reached
through a chain of partition indexings; sub-tensors get a compacted,
origin-based coordinate system (paper section 3.2). A reference's
elements are its region (:mod:`repro.tensors.regions`): reads and
writes reach them as a numpy view of the root array, and aliasing
checks intersect two regions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TensorError
from repro.numbering import next_number
from repro.sym import Expr, to_expr, variables
from repro.tensors.dtype import DType
from repro.tensors.regions import region_of, shared_tuple, view_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tensors.partition import Partition

#: Environments one reference memoises its view under. The shipped
#: kernels stay far below it; a reference indexed by the loop indices
#: of a large launch resolves the rest on each access instead of
#: growing with the grid.
_VIEW_MEMO_LIMIT = 1024


class LogicalTensor:
    """A first-class tensor of the logical description.

    Attributes:
        name: human-readable name (argument name or ``make_tensor`` site).
        shape: concrete extents; Cypress compiles statically, so shapes
            are known integers at compile time.
        dtype: element type.
        uid: creation number, unique within one :mod:`repro.numbering`
            (tensors compare by identity).
    """

    def __init__(self, name: str, shape: Sequence[int], dtype: DType):
        if not shape:
            raise TensorError("tensors must have rank >= 1")
        for extent in shape:
            if not isinstance(extent, int) or extent < 1:
                raise TensorError(
                    f"tensor {name!r} has illegal shape {tuple(shape)}"
                )
        self.name = name
        self.shape: Tuple[int, ...] = tuple(shape)
        self.dtype = dtype
        self.uid = next_number("tensor")

    @property
    def size(self) -> int:
        out = 1
        for extent in self.shape:
            out *= extent
        return out

    @property
    def size_bytes(self) -> int:
        return self.size * self.dtype.itemsize

    def ref(self) -> "TensorRef":
        """A reference to the whole tensor."""
        return TensorRef(self, path=())

    def __repr__(self) -> str:
        dims = "x".join(map(str, self.shape))
        return f"{self.name}#{self.uid}[{dims}:{self.dtype}]"

    def __hash__(self) -> int:
        return hash(self.uid)


class TensorRef:
    """A (sub-)tensor reference: a root tensor plus partition indexings.

    ``path`` is a tuple of ``(partition, index)`` pairs, outermost first;
    each ``index`` is a tuple of symbolic expressions selecting one piece
    of that partition. An empty path denotes the whole root tensor.
    """

    def __init__(
        self,
        root: LogicalTensor,
        path: Tuple[Tuple["Partition", Tuple[Expr, ...]], ...] = (),
    ):
        self.root = root
        self.path = path

    # ------------------------------------------------------------------
    # Shape / metadata
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> DType:
        return self.root.dtype

    @property
    def shape(self) -> Tuple[int, ...]:
        if not self.path:
            return self.root.shape
        shape = self.__dict__.get("_shape")
        if shape is None:
            partition, index = self.path[-1]
            shape = self._shape = partition.piece_shape(index)
        return shape

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        out = 1
        for extent in self.shape:
            out *= extent
        return out

    @property
    def size_bytes(self) -> int:
        return self.size * self.dtype.itemsize

    @property
    def is_whole(self) -> bool:
        return not self.path

    def free_variables(self) -> set:
        """Symbolic variables appearing in any index along the path."""
        out: set = set()
        for _, index in self.path:
            for expr in index:
                out |= variables(expr)
        return out

    # ------------------------------------------------------------------
    # Element selection
    # ------------------------------------------------------------------
    def _view_spec(self, env: Optional[Mapping[str, int]]):
        """``(view_shape, *slices)`` reaching this reference's elements.

        How the functional executor reaches one instance's elements
        (dependence-stage IR, and ops it cannot batch):
        ``regions.view_of`` turns the reference's region — dense
        ``blocks``/``squeeze`` boxes and strided ``mma`` fragments
        alike — into a reshape plus basic slices, so reads and writes
        go through numpy views. The reference is immutable, so the
        answer depends only on the values ``env`` gives its own free
        variables; it is memoised on those (slice tuples, never index
        arrays). Raises ``KeyError`` when ``env`` leaves one unbound.
        """
        memo = self.__dict__.get("_view_memo")
        if memo is None:
            # One attribute, assigned once: racing first uses each
            # build an equivalent memo and the last one wins.
            memo = self._view_memo = (
                tuple(sorted(self.free_variables())),
                {},
            )
        names, specs = memo
        env = env or {}
        key = tuple([env[name] for name in names])
        try:
            return specs[key]
        except KeyError:
            spec = view_of(self, env)
            if len(specs) < _VIEW_MEMO_LIMIT:
                specs[shared_tuple(key)] = spec
            return spec

    def __getstate__(self):
        """Pickle without the memos: they are cheap to rebuild and
        would make a kernel's stored size depend on what it has run."""
        state = self.__dict__.copy()
        state.pop("_shape", None)
        state.pop("_view_memo", None)
        return state

    def read(
        self, root_array: np.ndarray, env: Optional[Mapping[str, int]] = None
    ) -> np.ndarray:
        """A copy of this reference's elements of ``root_array``."""
        self._check_array(root_array)
        if self.is_whole:
            return root_array.copy()
        spec = self._view_spec(env)
        view = root_array.reshape(spec[0])[spec[1:]]
        return view.copy().reshape(self.shape)

    def write(
        self,
        root_array: np.ndarray,
        value: np.ndarray,
        env: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Store ``value`` into ``root_array`` at this reference."""
        self._check_array(root_array)
        value = np.asarray(value)
        if tuple(value.shape) != self.shape:
            raise TensorError(
                f"cannot write value of shape {tuple(value.shape)} through "
                f"reference of shape {self.shape}"
            )
        if self.is_whole:
            root_array[...] = value
            return
        spec = self._view_spec(env)
        # Splitting an axis never copies, whatever the strides, so the
        # assignment lands in ``root_array`` itself.
        view = root_array.reshape(spec[0])[spec[1:]]
        view[...] = value.reshape(view.shape)

    def _check_array(self, root_array: np.ndarray) -> None:
        if tuple(root_array.shape) != self.root.shape:
            raise TensorError(
                f"array of shape {tuple(root_array.shape)} does not realize "
                f"root tensor {self.root!r}"
            )

    # ------------------------------------------------------------------
    # Aliasing
    # ------------------------------------------------------------------
    def may_alias(self, other: "TensorRef") -> bool:
        """Do two references possibly share elements?

        Exact when both references are concrete; references into
        different root tensors never alias; otherwise conservatively
        ``True``. Both element sets are strided interval boxes
        (:mod:`repro.tensors.regions`), compared in O(rank).
        """
        if self.root is not other.root:
            return False
        if self.is_whole or other.is_whole:
            return True
        try:
            return region_of(self, {}).intersects(region_of(other, {}))
        except KeyError:
            return True  # symbolic index we cannot resolve: be conservative

    def __repr__(self) -> str:
        if self.is_whole:
            return repr(self.root)
        parts = []
        for partition, index in self.path:
            idx = ",".join(repr(to_expr(e)) for e in index)
            parts.append(f"{partition.kind}[{idx}]")
        return f"{self.root!r}.{'.'.join(parts)}"

