"""The kernel registry: stable names -> builders + shape signatures.

A :class:`KernelRegistry` maps a stable serving name (``"gemm"``,
``"flash_attention2"``) to a :class:`RegisteredKernel`: the ``build_*``
function from the kernel zoo, the ordered shape dimensions its requests
must provide, default mapping parameters, the :class:`BucketPolicy`
that rounds request shapes, and — for warm-up autotuning — a mapping
search space plus an adapter translating search-space candidates into
the builder's keyword arguments (attention builders spell their tiles
``q_tile``/``kv_tile`` rather than ``tile_m``/``tile_n``).

:func:`default_registry` returns a registry pre-populated with the
paper's whole kernel zoo; servers can also register custom builders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.compiler.pipeline import build_step
from repro.errors import CypressError
from repro.gpusim.gpu import GpuResult
from repro.kernels import KERNEL_BUILDERS, KernelBuild
from repro.machine.machine import MachineModel
from repro.runtime.bucketing import Bucket, BucketPolicy
from repro.tuner import MappingSearchSpace

#: candidate dict from a search space -> builder keyword arguments
TuneAdapter = Callable[[Dict[str, Any]], Dict[str, Any]]


def attention_tune_adapter(candidate: Dict[str, Any]) -> Dict[str, Any]:
    """Map GEMM-style search axes onto attention builder knobs."""
    return {
        "q_tile": candidate["tile_m"],
        "kv_tile": candidate["tile_n"],
        "wgs": candidate["wgs"],
        "pipeline": candidate["pipeline"],
        "warpspecialize": candidate["warpspecialize"],
    }


@dataclass
class RegisteredKernel:
    """One servable kernel family.

    Attributes:
        name: the stable serving name.
        builder: ``build_*(machine, <dims...>, **params) -> KernelBuild``.
        dims: ordered shape-dimension names requests must provide.
        policy: rounds request shapes to buckets.
        defaults: mapping parameters applied to every build.
        search_space: candidates for ``RuntimeServer.warm(tune=True)``.
        tune_adapter: translates a candidate dict to builder kwargs
            (identity when ``None``).
        specialize_align: per-dimension granule for exact-shape
            specialization — each promoted shape is rounded up to a
            multiple of its granule so the *default* build's partitions
            divide evenly (dimensions not listed use granule 1).
            ``None`` disables specialization for this kernel: the
            :class:`~repro.runtime.specialize.ShapeSpecializer` has no
            safe alignment to build at, so it never promotes it.
        flops_fn: ``shape dict -> useful FLOPs`` estimator used for
            padded-waste accounting; the product of the extents when
            ``None`` (exact for volume-proportional kernels).
    """

    name: str
    builder: Callable[..., KernelBuild]
    dims: Tuple[str, ...]
    policy: BucketPolicy
    defaults: Dict[str, Any] = field(default_factory=dict)
    search_space: Optional[MappingSearchSpace] = None
    tune_adapter: Optional[TuneAdapter] = None
    specialize_align: Optional[Dict[str, int]] = None
    flops_fn: Optional[Callable[[Dict[str, int]], float]] = None

    def bucket(self, shape) -> Bucket:
        """Round a request shape with this kernel's policy."""
        return self.policy.bucket(shape, self.dims)

    def exact_bucket(self, shape: Mapping[str, int]) -> Bucket:
        """The *unrounded* request shape as a :class:`Bucket` (dims in
        registration order) — the specializer's guard key."""
        return Bucket(tuple((name, shape[name]) for name in self.dims))

    def flops(self, shape: Mapping[str, int]) -> float:
        """Estimated useful FLOPs of one request at ``shape``.

        Uses the registered ``flops_fn`` when present, else the product
        of the shape extents — a relative work proxy that is exact for
        kernels whose FLOPs are volume-proportional (the GEMM family).
        """
        if self.flops_fn is not None:
            return float(self.flops_fn(dict(shape)))
        total = 1.0
        for extent in shape.values():
            total *= extent
        return total

    def build(
        self,
        machine: MachineModel,
        bucket: Bucket,
        params: Optional[Dict[str, Any]] = None,
    ) -> KernelBuild:
        """Instantiate the builder at a bucket shape."""
        kwargs = dict(self.defaults)
        if params:
            kwargs.update(params)
        return self.builder(machine, **bucket.as_dict(), **kwargs)

    def tuned_params(self, candidate: Dict[str, Any]) -> Dict[str, Any]:
        """A search-space candidate as this builder's parameters."""
        return self.tune_adapter(candidate) if self.tune_adapter else candidate

    def candidate_builder(self, bucket: Bucket) -> Callable[..., KernelBuild]:
        """The tuner's ``build_fn(machine, **candidate)`` at ``bucket``."""
        return lambda machine, **candidate: self.build(
            machine, bucket, self.tuned_params(candidate)
        )


@dataclass(slots=True)
class Launch:
    """A registered kernel resolved at one bucket, so serving it builds
    and hashes nothing: the pinned mapping ``params`` (``None``:
    registered defaults), the ``build`` under them, and that build's
    compile ``key`` and ``compute`` (:func:`~repro.compiler.pipeline.
    build_step`), hashed once, here; no later registration outdates
    the key. ``warmed`` names the compiled kernel once ``warm`` has
    fetched it. ``gpu`` is that kernel's simulated timing on the
    server's machine, a pure function of ``key``: filled by the
    record's first executed batch (or by ``warm``) and reused by every
    later one, so it is dropped only with the record."""

    params: Optional[Dict[str, Any]]
    build: KernelBuild
    key: str = field(init=False)
    compute: Callable[[], Any] = field(init=False)
    warmed: Optional[str] = None
    gpu: Optional[GpuResult] = None

    def __post_init__(self) -> None:
        self.key, self.compute = build_step(self.build)


class KernelRegistry:
    """Name -> :class:`RegisteredKernel`, the server's dispatch table."""

    def __init__(self) -> None:
        self._kernels: Dict[str, RegisteredKernel] = {}

    def register(
        self,
        name: str,
        builder: Callable[..., KernelBuild],
        dims: Tuple[str, ...],
        *,
        policy: Optional[BucketPolicy] = None,
        defaults: Optional[Dict[str, Any]] = None,
        search_space: Optional[MappingSearchSpace] = None,
        tune_adapter: Optional[TuneAdapter] = None,
        specialize_align: Optional[Mapping[str, int]] = None,
        flops: Optional[Callable[[Dict[str, int]], float]] = None,
    ) -> RegisteredKernel:
        """Register a servable kernel family.

        Args:
            name: stable serving name (unique).
            builder: ``build_*(machine, <dims...>, **params)``.
            dims: ordered shape-dimension names requests must provide.
            policy: bucket-rounding policy (defaults to pow2 floors).
            defaults: mapping parameters applied to every build.
            search_space: candidates for ``warm(tune=True)``.
            tune_adapter: candidate dict -> builder kwargs translator.
            specialize_align: per-dimension alignment granule enabling
                exact-shape specialization (``None`` opts this kernel
                out of the specializer).
            flops: ``shape dict -> useful FLOPs`` estimator for
                padded-waste accounting.

        Returns:
            The stored :class:`RegisteredKernel`.

        Raises:
            CypressError: when ``name`` is already registered.
        """
        if name in self._kernels:
            raise CypressError(f"kernel {name!r} is already registered")
        entry = RegisteredKernel(
            name=name,
            builder=builder,
            dims=tuple(dims),
            policy=policy or BucketPolicy(ladders={}),
            defaults=dict(defaults or {}),
            search_space=search_space,
            tune_adapter=tune_adapter,
            specialize_align=(
                dict(specialize_align) if specialize_align else None
            ),
            flops_fn=flops,
        )
        self._kernels[name] = entry
        return entry

    def get(self, name: str) -> RegisteredKernel:
        """Look up a kernel by serving name.

        Raises:
            CypressError: unknown name (the message lists known ones).
        """
        try:
            return self._kernels[name]
        except KeyError:
            known = ", ".join(sorted(self._kernels)) or "<none>"
            raise CypressError(
                f"unknown kernel {name!r}; registered kernels: {known}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._kernels

    def __len__(self) -> int:
        return len(self._kernels)


#: Output-tile ladders for the GEMM family (matmul extents).
_GEMM_MN = (256, 512, 1024, 2048, 4096, 8192)
_GEMM_K = (128, 256, 512, 1024, 2048, 4096)
_BATCH = (1, 2, 4, 8, 16, 32, 64)
_HEADS = (1, 2, 4, 8, 16, 32, 64, 128)
_SEQ = (256, 512, 1024, 2048, 4096, 8192, 16384)


def _gemm_space() -> MappingSearchSpace:
    return MappingSearchSpace(
        tiles=((256, 256), (128, 256), (128, 128)),
        pipeline_depths=(1, 2, 3),
        warpgroups=(1, 2),
        warpspecialize=(True, False),
    )


def _attention_space() -> MappingSearchSpace:
    return MappingSearchSpace(
        tiles=((128, 128), (128, 256)),
        pipeline_depths=(1, 2, 3),
        warpgroups=(1, 2),
        warpspecialize=(True, False),
    )


#: Exact-shape specialization granules: multiples of the default build
#: tiles (gemm family tiles 256x256x64, attention q/kv tiles 128), so a
#: promoted shape's partitions always divide evenly.
_GEMM_ALIGN = {"m": 256, "n": 256, "k": 64}
_ATTN_ALIGN = {"heads": 1, "seq": 128, "head_dim": 128}


def _gemm_flops(shape: Dict[str, int]) -> float:
    return 2.0 * shape["m"] * shape["n"] * shape["k"]


def _dual_gemm_flops(shape: Dict[str, int]) -> float:
    return 2.0 * _gemm_flops(shape)  # two GEMMs share A


def _batched_gemm_flops(shape: Dict[str, int]) -> float:
    return 2.0 * shape["batch"] * shape["m"] * shape["n"] * shape["k"]


def _attention_flops(shape: Dict[str, int]) -> float:
    return 4.0 * shape["heads"] * shape["seq"] ** 2 * shape["head_dim"]


def default_registry() -> KernelRegistry:
    """A registry serving the paper's whole kernel zoo."""
    registry = KernelRegistry()
    gemm_policy = BucketPolicy(ladders={"m": _GEMM_MN, "n": _GEMM_MN,
                                        "k": _GEMM_K})
    attn_policy = BucketPolicy(
        ladders={"heads": _HEADS, "seq": _SEQ, "head_dim": (128,)}
    )
    for name, flops in (
        ("gemm", _gemm_flops),
        ("dual_gemm", _dual_gemm_flops),
        ("gemm_reduction", _gemm_flops),
    ):
        registry.register(
            name,
            KERNEL_BUILDERS[name],
            ("m", "n", "k"),
            policy=gemm_policy,
            search_space=_gemm_space(),
            specialize_align=_GEMM_ALIGN,
            flops=flops,
        )
    registry.register(
        "batched_gemm",
        KERNEL_BUILDERS["batched_gemm"],
        ("batch", "m", "n", "k"),
        policy=BucketPolicy(
            ladders={"batch": _BATCH, "m": _GEMM_MN, "n": _GEMM_MN,
                     "k": _GEMM_K}
        ),
        search_space=_gemm_space(),
        specialize_align={"batch": 1, **_GEMM_ALIGN},
        flops=_batched_gemm_flops,
    )
    for name in ("flash_attention2", "flash_attention3"):
        registry.register(
            name,
            KERNEL_BUILDERS[name],
            ("heads", "seq", "head_dim"),
            policy=attn_policy,
            search_space=_attention_space(),
            tune_adapter=attention_tune_adapter,
            specialize_align=_ATTN_ALIGN,
            flops=_attention_flops,
        )
    return registry
