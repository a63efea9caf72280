"""Shape bucketing: a bounded kernel set serving unbounded shapes.

A serving runtime cannot compile a kernel per request shape — the
compile cache would churn and every novel shape would pay a cold
compile. Instead each registered kernel declares named shape dimensions
(``m``/``n``/``k`` for GEMM, ``heads``/``seq``/``head_dim`` for
attention) and a :class:`BucketPolicy` that rounds every incoming
dimension **up** to a configured ladder rung. All requests that round to
the same :class:`Bucket` share one compiled kernel, so a handful of
compilations serve arbitrary traffic; callers pad functional inputs to
the bucket shape, the standard padded-serving contract.

Rounding up (never down) keeps the bucketed kernel a superset of the
requested problem. Shapes beyond the top rung round up to the next
multiple of the largest rung, so the bucket set stays small for the
configured range and degrades gracefully past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from repro.errors import CypressError


class Bucket:
    """One rounded shape: an ordered tuple of (dimension, extent).

    Immutable and hashed once: every request probes the server's
    per-bucket tables with it, so the hash of ``dims`` is kept. A
    string's hash differs between interpreters (``PYTHONHASHSEED``), so
    a bucket pickles to its ``dims`` alone and rehashes when loaded.
    """

    __slots__ = ("dims", "_hash")

    def __init__(self, dims: Tuple[Tuple[str, int], ...]) -> None:
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_hash", hash(dims))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Bucket is immutable; cannot set {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not Bucket:
            return NotImplemented
        return self is other or (
            self._hash == other._hash and self.dims == other.dims
        )

    def __reduce__(self):
        return (Bucket, (self.dims,))

    def __repr__(self) -> str:
        return f"Bucket(dims={self.dims!r})"

    def as_dict(self) -> Dict[str, int]:
        """The bucket shape as ``{dimension: extent}``."""
        return dict(self.dims)

    def label(self) -> str:
        """A compact tag like ``"m512xn512xk256"`` for reports."""
        return "x".join(f"{name}{extent}" for name, extent in self.dims)

    def __iter__(self):
        return iter(self.dims)


def _round_pow2(value: int, floor: int) -> int:
    rung = floor
    while rung < value:
        rung *= 2
    return rung


@dataclass(frozen=True)
class BucketPolicy:
    """Per-dimension rounding ladders.

    Attributes:
        ladders: dimension name -> ascending rung extents. A value
            rounds up to the smallest rung >= it; values above the top
            rung round up to the next multiple of that rung.
        floor: fallback granule for dimensions without a ladder, which
            round up to ``floor * 2^i`` (hardware tiles want
            power-of-two-ish extents; 64 is the WGMMA row granule).
    """

    ladders: Mapping[str, Sequence[int]]
    floor: int = 64

    def __post_init__(self) -> None:
        if self.floor < 1:
            raise CypressError(
                f"bucket floor must be >= 1, got {self.floor!r}"
            )
        for name, rungs in self.ladders.items():
            # Strictly ascending: a duplicated rung would become its
            # own neighbor in neighbor_extents(), and the speculator
            # would "precompile" the bucket traffic already serves.
            if (
                not rungs
                or rungs[0] < 1
                or any(b <= a for a, b in zip(rungs, rungs[1:]))
            ):
                raise CypressError(
                    f"bucket ladder for {name!r} must be a strictly "
                    f"ascending sequence of positive extents, got {rungs!r}"
                )

    def round_dim(self, name: str, value: int) -> int:
        """Round one dimension up to its ladder rung (or pow2 granule).

        Args:
            name: the dimension being rounded.
            value: the requested extent (must be a positive integer).

        Returns:
            The bucketed extent, always >= ``value``.

        Raises:
            CypressError: when ``value`` is not a positive integer.
        """
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise CypressError(
                f"shape dimension {name!r} must be a positive integer, "
                f"got {value!r}"
            )
        return self._round(name, value)

    def _round(self, name: str, value: int) -> int:
        """:meth:`round_dim` of an already validated ``value``."""
        rungs = self.ladders.get(name)
        if rungs is None:
            return _round_pow2(value, self.floor)
        for rung in rungs:
            if value <= rung:
                return rung
        top = rungs[-1]
        return -(-value // top) * top

    def neighbor_extents(self, name: str, extent: int) -> Tuple[int, ...]:
        """Ladder rungs adjacent to a bucketed extent, ascending.

        For a laddered dimension these are the rungs directly below and
        above ``extent`` (above the top rung, the adjacent multiples of
        it); for an unladdered dimension, the adjacent powers of two
        over the ``floor`` granule. The speculator walks these to guess
        which buckets shifting traffic will need next.

        Args:
            name: the dimension.
            extent: a bucketed extent (as produced by :meth:`round_dim`).

        Returns:
            The neighboring extents, never including ``extent`` itself.
        """
        rungs = self.ladders.get(name)
        out = []
        if rungs is None:
            if extent // 2 >= self.floor:
                out.append(extent // 2)
            out.append(extent * 2)
            return tuple(out)
        top = rungs[-1]
        if extent > top:
            # Beyond the ladder: buckets are multiples of the top rung.
            out.append(max(extent - top, top))
            out.append(extent + top)
            return tuple(out)
        for index, rung in enumerate(rungs):
            if extent <= rung:
                if index > 0:
                    out.append(rungs[index - 1])
                if index + 1 < len(rungs):
                    out.append(rungs[index + 1])
                else:
                    out.append(rung * 2)
                break
        return tuple(out)

    def neighbors(self, bucket: Bucket) -> Tuple[Bucket, ...]:
        """Buckets one rung away from ``bucket``, one dimension at a time.

        The candidate count stays linear in the number of dimensions
        (no cross product): each returned bucket differs from the input
        in exactly one dimension, stepped to an adjacent ladder rung.
        """
        out = []
        dims = bucket.dims
        for position, (name, extent) in enumerate(dims):
            for candidate in self.neighbor_extents(name, extent):
                swapped = list(dims)
                swapped[position] = (name, candidate)
                out.append(Bucket(tuple(swapped)))
        return tuple(out)

    def bucket(self, shape: Mapping[str, int], dims: Sequence[str]) -> Bucket:
        """Round ``shape`` (one extent per name in ``dims``) to a bucket.

        One validating pass, run in full on every call (every request
        and every graph node goes through it): the dimension names are
        compared as one set, and an extent of exact type ``int`` that
        is positive rounds without :meth:`round_dim`'s checks; any
        other extent (``True``, ``512.0``, ``0``, an ``int`` subclass)
        goes through :meth:`round_dim`, which rounds or raises.

        Raises:
            CypressError: a dimension of ``dims`` is missing, ``shape``
                names one outside ``dims``, or an extent is not a
                positive integer.
        """
        if shape.keys() != set(dims):
            missing = [name for name in dims if name not in shape]
            if missing:
                raise CypressError(
                    f"request shape is missing dimension(s) "
                    f"{', '.join(repr(m) for m in missing)}; expected "
                    f"{tuple(dims)}"
                )
            unknown = set(shape) - set(dims)
            raise CypressError(
                f"request shape has unknown dimension(s) "
                f"{', '.join(repr(u) for u in sorted(unknown))}; expected "
                f"{tuple(dims)}"
            )
        extents = []
        for name in dims:
            value = shape[name]
            if type(value) is int and value > 0:
                extents.append((name, self._round(name, value)))
            else:
                extents.append((name, self.round_dim(name, value)))
        return Bucket(tuple(extents))
