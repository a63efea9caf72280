"""Symbolic region algebra: which elements a reference touches.

A reference's elements are its region. The paper proves ``prange``
write-disjointness from the structure of the tensor partition tree
(Legion-style privilege checking); this module gives the reproduction
the same power without enumerating elements: the element set of a
:class:`TensorRef` is a *strided interval box* — per root dimension a
:class:`Dim` ``(lo, step, count, span)`` describing the integer set
``{lo + step*i + j | 0 <= i < count, 0 <= j < span}``. Every partition
operator maps boxes structurally (``blocks`` pieces are dense boxes,
``squeeze`` re-inserts unit dimensions, ``mma`` fragments are strided
rows/columns of the Figure-4 pattern), and a partition whose pieces
would not be boxes is rejected when it is built, so disjointness and
containment of two references are O(rank) arithmetic tests.

Three entry points:

* :func:`region_of` — the concrete region of a reference under an
  index environment;
* :func:`view_of` — the same region as a numpy reshape plus basic
  slices, which is how every read and write of a reference reaches
  its elements;
* :func:`prove_iterations_disjoint` — an affine proof, over *all*
  pairs of distinct loop iterations at once, that two write references
  can never overlap; on success the dependence analysis skips
  environment sampling entirely.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import TensorError
from repro.sym import affine_form, evaluate


@dataclass(frozen=True)
class Dim:
    """One dimension of a box: the set ``{lo + step*i + j}``.

    ``i`` ranges over ``[0, count)`` and ``j`` over ``[0, span)``: a
    ``count``-long train of ``span``-wide intervals spaced ``step``
    apart. A dense interval is ``count == 1``; the constructor
    canonicalizes overlapping/abutting trains (``span >= step``) into
    dense form so equality and the fast tests see one representation.
    """

    lo: int
    step: int
    count: int
    span: int

    def __post_init__(self) -> None:
        if self.step < 1 or self.count < 1 or self.span < 1:
            raise ValueError(f"malformed region dimension {self}")
        if self.count == 1 and self.step != self.span:
            object.__setattr__(self, "step", self.span)
        elif self.count > 1 and self.span >= self.step:
            # Abutting or overlapping intervals: the train is dense.
            total = self.step * (self.count - 1) + self.span
            object.__setattr__(self, "span", total)
            object.__setattr__(self, "step", total)
            object.__setattr__(self, "count", 1)

    @property
    def is_dense(self) -> bool:
        """True when the dimension is one contiguous interval."""
        return self.count == 1

    @property
    def hi(self) -> int:
        """The largest coordinate in the set (inclusive)."""
        return self.lo + self.step * (self.count - 1) + self.span - 1

    def values(self) -> np.ndarray:
        """Every coordinate, ascending (bounded by the root extent)."""
        base = self.lo + self.step * np.arange(self.count)
        return (base[:, None] + np.arange(self.span)[None, :]).ravel()

    def shifted(self, offset: int) -> "Dim":
        """This dimension translated by ``offset``."""
        return Dim(self.lo + offset, self.step, self.count, self.span)

    # ------------------------------------------------------------------
    def intersects(self, other: "Dim") -> bool:
        """Exact 1-D overlap test, O(1) except for mixed strides."""
        if self.hi < other.lo or other.hi < self.lo:
            return False
        if self.is_dense and other.is_dense:
            return True  # overlapping bounding intervals are the sets
        if self.is_dense:
            return other._intersects_dense(self)
        if other.is_dense:
            return self._intersects_dense(other)
        if self.step == other.step:
            return self._intersects_same_step(other)
        # Mixed strides: enumerate per-dimension values (bounded by the
        # root extent along this axis, never by the element count).
        return np.intersect1d(self.values(), other.values()).size > 0

    def _intersects_dense(self, dense: "Dim") -> bool:
        # Some interval [lo + step*i, +span) must meet [dense.lo, hi].
        first = -(-(dense.lo - self.span + 1 - self.lo) // self.step)
        last = (dense.hi - self.lo) // self.step
        return max(first, 0) <= min(last, self.count - 1)

    def _intersects_same_step(self, other: "Dim") -> bool:
        # Intervals i of self and j of other overlap iff
        #   step*(i - j) in (d - span_self, d + span_other),
        # with k = i - j realizable iff -(count_other-1) <= k <=
        # count_self - 1.
        step = self.step
        d = other.lo - self.lo
        k_min = -(-(d - self.span + 1) // step)  # ceil
        k_max = (d + other.span - 1) // step  # floor
        return max(k_min, -(other.count - 1)) <= min(k_max, self.count - 1)

    def contains(self, other: "Dim") -> bool:
        """Exact 1-D superset test."""
        if other.lo < self.lo or other.hi > self.hi:
            return False
        if self.is_dense:
            return True
        if other.is_dense and other.span > self.span:
            return False
        if self.step == other.step or (
            other.is_dense and other.span <= self.span
        ):
            # Every other-interval must land inside one self-interval.
            for start in (other.lo + other.step * i
                          for i in range(other.count)):
                offset = (start - self.lo) % self.step
                if offset + other.span > self.span:
                    return False
                if not 0 <= (start - self.lo) // self.step < self.count:
                    return False
            return True
        mine = self.values()
        return bool(np.isin(other.values(), mine).all())


@dataclass(frozen=True)
class Box:
    """A product of per-dimension sets: one :class:`Dim` per root axis."""

    dims: Tuple[Dim, ...]

    @property
    def rank(self) -> int:
        """Number of root-tensor axes the box spans."""
        return len(self.dims)

    def intersects(self, other: "Box") -> bool:
        """Boxes are products, so they meet iff every axis meets."""
        if self.rank != other.rank:
            raise ValueError(
                f"rank mismatch: {self.rank} vs {other.rank}"
            )
        return all(a.intersects(b) for a, b in zip(self.dims, other.dims))

    def contains(self, other: "Box") -> bool:
        """Product-set containment: every axis must contain its peer."""
        if self.rank != other.rank:
            raise ValueError(
                f"rank mismatch: {self.rank} vs {other.rank}"
            )
        return all(a.contains(b) for a, b in zip(self.dims, other.dims))


@dataclass(frozen=True)
class Region:
    """A union of boxes over one root tensor's coordinate space."""

    boxes: Tuple[Box, ...]

    def intersects(self, other: "Region") -> bool:
        """Do the two unions share any element coordinate?"""
        return any(
            a.intersects(b) for a in self.boxes for b in other.boxes
        )

    def contains(self, other: "Region") -> bool:
        """Sufficient containment: every box fits inside one of ours."""
        return all(
            any(mine.contains(box) for mine in self.boxes)
            for box in other.boxes
        )


def identity_dims(shape: Sequence[int]) -> Tuple[Dim, ...]:
    """The dense origin box of a piece-local coordinate system."""
    return tuple(Dim(0, extent, 1, extent) for extent in shape)


def tensor_region(shape: Sequence[int]) -> Region:
    """The dense region covering a whole root tensor of ``shape``.

    The public whole-tensor query: task graphs use it both to describe
    a whole-tensor access and as the universe against which a write is
    tested for full coverage (a covering write supersedes every earlier
    access to the same root).
    """
    return Region((Box(identity_dims(shape)),))


def region_of(ref, env: Optional[Mapping[str, int]] = None) -> Region:
    """The root-coordinate region of a reference.

    Walks the partition path inner-to-outer, asking each partition to
    map interval dimensions structurally (``Partition.map_dims``).
    Raises ``KeyError`` when a symbolic index is unbound by ``env``.
    """
    env = env or {}
    dims = identity_dims(ref.shape)
    for partition, index in reversed(ref.path):
        concrete = tuple(evaluate(e, env) for e in index)
        dims = partition.map_dims(dims, concrete)
    return Region((Box(dims),))


#: ``(view_shape, *slices)``: reshape the root array, then index it.
ViewSpec = Tuple[Union[Tuple[int, ...], slice], ...]


# Callers keep one spec per reference and environment — for a fragment,
# per thread — built from few distinct pieces. Sharing the equal ones
# (bounded, like ``sys.intern``) keeps a retained spec to one small
# tuple of pointers.
@functools.lru_cache(maxsize=4096)
def shared_tuple(value: Tuple[int, ...]) -> Tuple[int, ...]:
    """The first-built tuple equal to ``value``."""
    return value


@functools.lru_cache(maxsize=4096)
def _shared_slice(start: int, stop: int) -> slice:
    return slice(start, stop)


def view_of(ref, env: Optional[Mapping[str, int]] = None) -> ViewSpec:
    """The reference's elements as ``(view_shape, *slices)``.

    ``root_array.reshape(spec[0])[spec[1:]]`` is a numpy *view* holding
    exactly the reference's elements in sub-tensor order (reshape it to
    ``ref.shape``). A strided axis ``Dim(lo, step, count, span)`` of a
    root extent ``n`` splits into ``(n // step, step)`` and takes
    ``[lo // step : lo // step + count, lo % step : lo % step + span]``;
    a dense axis is the ``count == 1`` case and needs no split.

    Raises :class:`~repro.errors.TensorError` when the region is not a
    view of its root: it leaves the root's bounds (an index out of
    range), or a step does not divide its root extent. Raises
    ``KeyError`` when a symbolic index is unbound by ``env``.
    """
    (box,) = region_of(ref, env).boxes
    view_shape = []
    slices = []
    for dim, extent in zip(box.dims, ref.root.shape):
        if dim.lo < 0 or dim.hi >= extent:
            raise TensorError(
                f"{ref!r} under {dict(env or {})} reaches "
                f"[{dim.lo}, {dim.hi}] outside extent {extent} of its root"
            )
        if dim.is_dense:
            view_shape.append(extent)
            slices.append(_shared_slice(dim.lo, dim.lo + dim.span))
            continue
        period, offset = divmod(dim.lo, dim.step)
        if extent % dim.step or offset + dim.span > dim.step:
            raise TensorError(
                f"{ref!r} under {dict(env or {})} is no strided view of "
                f"its root: period {dim.step}, root extent {extent}"
            )
        view_shape += [extent // dim.step, dim.step]
        slices += [
            _shared_slice(period, period + dim.count),
            _shared_slice(offset, offset + dim.span),
        ]
    return (shared_tuple(tuple(view_shape)), *slices)


# ----------------------------------------------------------------------
# Symbolic (all-iterations) disjointness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SymDim:
    """A dense dimension whose low bound is affine in loop variables."""

    const: int
    coeffs: Mapping[str, int] = field(default_factory=dict)
    span: int = 1

    def same_form(self, other: "SymDim") -> bool:
        """True when both bounds are the identical affine function."""
        return self.const == other.const and dict(self.coeffs) == dict(
            other.coeffs
        )


def symbolic_box(ref) -> Optional[Tuple[SymDim, ...]]:
    """Per-root-axis affine bounds of a (possibly symbolic) reference.

    Only partition chains whose pieces stay dense boxes with affine
    offsets (``blocks`` and ``squeeze``) are representable; any other
    partition kind, non-affine index expression, or ragged symbolic
    piece yields ``None``. The decomposition is memoized on the
    reference — the ``prange`` disjointness proof queries the same
    reference objects many times.
    """
    cached = ref.__dict__.get("_symbolic_box_cache", False)
    if cached is not False:
        return cached
    box = _symbolic_box_uncached(ref)
    ref.__dict__["_symbolic_box_cache"] = box
    return box


def _symbolic_box_uncached(ref) -> Optional[Tuple[SymDim, ...]]:
    try:
        shape = ref.shape
    except Exception:
        return None  # ragged symbolic pieces have no static shape
    dims: Optional[Tuple[SymDim, ...]] = tuple(
        SymDim(0, {}, extent) for extent in shape
    )
    for partition, index in reversed(ref.path):
        affine = []
        for expr in index:
            form = affine_form(expr)
            if form is None:
                return None
            affine.append(form)
        dims = partition.map_symbolic_dims(dims, tuple(affine))
        if dims is None:
            return None
    return dims


def prove_iterations_disjoint(
    ref_a,
    ref_b,
    domain: Sequence[Tuple[str, int]],
) -> bool:
    """Prove two write references never overlap across loop iterations.

    ``domain`` lists the parallel loop's induction variables with their
    extents. The claim proved is: for every pair of *distinct*
    iteration environments (variables outside the domain held fixed),
    the regions written through ``ref_a`` and ``ref_b`` are disjoint.
    Returns ``False`` whenever the proof does not go through — callers
    must then fall back to sampling; ``False`` never means "aliases".

    The proof obligation per active variable ``v`` is a *separating
    axis*: a root dimension whose affine bound is the same function for
    both references, depends on no other active loop variable, and
    moves by at least the spans per unit of ``v`` — so any two
    environments that differ do so in some variable whose axis pushes
    the boxes apart.
    """
    if ref_a.root is not ref_b.root:
        return True
    active = [name for name, extent in domain if extent > 1]
    if not active:
        return True  # a single iteration cannot race with itself
    box_a = symbolic_box(ref_a)
    box_b = symbolic_box(ref_b)
    if box_a is None or box_b is None or len(box_a) != len(box_b):
        return False
    active_set = set(active)
    for var in active:
        if not any(
            _separates(da, db, var, active_set)
            for da, db in zip(box_a, box_b)
        ):
            return False
    return True


def _separates(da: SymDim, db: SymDim, var: str, active: Set[str]) -> bool:
    """Does this axis keep the boxes apart whenever ``var`` differs?"""
    if not da.same_form(db):
        return False
    coeff = da.coeffs.get(var, 0)
    if coeff == 0 or abs(coeff) < max(da.span, db.span):
        return False
    # Another active variable on the same axis could cancel the motion.
    return all(
        name == var or name not in active for name in da.coeffs
    )

