"""Element datatypes for tensors.

Cypress's evaluation uses FP16 inputs with FP32 accumulation on the
Tensor Core; the functional executor mirrors that by storing f16 tensors
as ``numpy.float16`` and accumulating matmuls in ``numpy.float32``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DType:
    """An element type with a size and a numpy realization.

    Attributes:
        name: short name used in printed IR and generated code.
        itemsize: bytes per element.
        np_dtype: the numpy dtype string used by the functional executor.
        accumulator: name of the dtype used when this type is accumulated
            on a Tensor Core (FP16/BF16 accumulate in FP32).
    """

    name: str
    itemsize: int
    np_dtype: str
    accumulator: str

    def to_numpy(self) -> np.dtype:
        """The numpy dtype object for stored values."""
        return np.dtype(self.np_dtype)

    def __repr__(self) -> str:
        return self.name


f16 = DType("f16", 2, "float16", "f32")
bf16 = DType("bf16", 2, "float32", "f32")  # numpy lacks bfloat16; model as f32
f32 = DType("f32", 4, "float32", "f32")
f64 = DType("f64", 8, "float64", "f64")
i32 = DType("i32", 4, "int32", "i32")
